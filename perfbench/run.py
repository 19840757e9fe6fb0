"""The repository benchmark: one workload, end to end or layer by layer.

Run from the repository root (``src/`` must be there; the benchmark runs
the package from source)::

    python3 perfbench/run.py --workload paper_matrix --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``wall_s``: median time of one pass over the workload's cells;
* ``setup_s``: median, over several fresh processes, of the time from
  process start to the first cell (interpreter, imports, inputs);
* ``peak_rss_mib``: the high-water mark of the fresh process that ran
  the passes, so it belongs to this workload alone;
* ``ok_frac``: cells that passed every check, over cells attempted (one
  minus the failed fraction, which is 0 on two workloads and so cannot be
  gated as a share of itself).

Times are host seconds scaled to a reference host speed by the probe of
``probe.py``; the raw host times are printed on the ``detail`` line.

``--trace 1`` runs untraced passes, then traced passes in a fresh process
with the layer wrappers of ``layers.py`` installed, and reports the
per-layer metrics of the traced passes plus the tracing overhead.

Every cell is checked (see ``workloads.py``), and every cell's result
digest must repeat across the passes of one invocation and between its
untraced and traced passes; a cell that fails a check or a comparison
counts as failed.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give provenance, the workload digest, outcomes and failures.

The measuring processes run with every ``REPRO_*`` variable removed from
their environment, so a flagged shell cannot pass for the plain program;
the variables that were set are listed in the provenance line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("paper_matrix", "fleet_300", "chaos_armed")
#: Fresh processes that only time set-up; the measuring process is one more.
SETUP_SAMPLES = 6
#: Untraced passes at least, so the median drops a cold first pass.
PLAIN_MIN_PASSES = 3
#: Traced passes at least, so the traced counts can be compared.
TRACED_MIN_PASSES = 2
#: Hard limit on the whole invocation.
DEADLINE_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _child(mode, args, seconds, min_passes, deadline) -> tuple[float, dict]:
    """Run one worker process; return its set-up time at reference speed
    and its report."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), mode, args.workload,
        str(args.seed), str(seconds), str(min_passes), "1" if args.small else "0",
    ]
    # The set-up time is scaled by probe samples taken just before the
    # process starts and just after its first cell is ready.
    before = probe.unit_s()
    start = time.monotonic()
    proc = subprocess.run(
        cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(deadline - start, 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = report["first_cell"] - start
    return setup * probe.speed_scale((before + report["probe_unit_s"]) / 2), report


def _git(*argv: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _provenance(args, numpy_version: str) -> dict:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "source_sha256": _source_digest(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
    }


def _score(passes: list[dict], reference: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure notes) of ``passes`` against the
    reference cell records ``[label, outcome, failure, digest]``."""
    attempted = failed = 0
    notes: list[str] = []
    for i, p in enumerate(passes):
        for cell, ref in zip(p["cells"], reference, strict=True):
            attempted += 1
            label, outcome, failure, digest = cell
            why = failure or ("digest differs from the first untraced pass" if digest != ref[3] else "")
            if why:
                failed += 1
                notes.append(f"pass {i}: {label}: {why}")
    return attempted, failed, notes


def _workload_digest(cells: list) -> str:
    """Digest of every cell's result, independent of the cell order."""
    text = "".join(f"{label}={digest};" for label, _, _, digest in sorted(cells))
    return hashlib.sha256(text.encode()).hexdigest()


def _traced_metrics(passes: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics over traced passes: the median of each timing
    (at reference speed), and whether every count repeated exactly."""
    out, repeat = {}, True
    for name, (_, unit) in passes[0]["layers"].items():
        values = [p["layers"][name][0] for p in passes]
        if unit in ("s", "ns"):
            scaled = [v * p["norm_s"] / p["wall_s"] for v, p in zip(values, passes)]
            out[name] = (statistics.median(scaled), unit)
        else:
            repeat = repeat and len(set(values)) == 1
            out[name] = (values[0], unit)
    return out, repeat


def _pass_s(passes: list[dict]) -> float:
    """Median pass time at reference speed."""
    return statistics.median(p["norm_s"] for p in passes)


def _end_to_end(args, deadline):
    setups = [_child("setup", args, 0, 0, deadline)[0] for _ in range(SETUP_SAMPLES)]
    setup, plain = _child("plain", args, args.seconds, PLAIN_MIN_PASSES, deadline)
    setups.append(setup)
    passes = plain["passes"]
    attempted, failed, notes = _score(passes, passes[0]["cells"])
    metrics = {
        "wall_s": (_pass_s(plain["passes"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (plain["peak_rss_mib"], "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    detail = {
        "host_pass_s": [p["wall_s"] for p in passes],
        "norm_pass_s": [p["norm_s"] for p in passes],
        "setup_s": setups,
    }
    return passes, attempted, failed, notes, metrics, plain["numpy"], detail


def _per_layer(args, deadline):
    half = args.seconds / 2
    _, plain = _child("plain", args, half, 1, deadline)
    _, traced = _child("traced", args, half, TRACED_MIN_PASSES, deadline)
    passes = plain["passes"] + traced["passes"]
    attempted, failed, notes = _score(passes, passes[0]["cells"])
    metrics, repeat = _traced_metrics(traced["passes"])
    if not repeat:
        notes.append("traced counts differ between traced passes")
    metrics["bench.trace_overhead"] = (
        _pass_s(traced["passes"]) / _pass_s(plain["passes"]), "ratio"
    )
    detail = {
        "host_pass_s": [p["wall_s"] for p in plain["passes"]],
        "host_traced_pass_s": [p["wall_s"] for p in traced["passes"]],
        "missing_hooks": traced["missing_hooks"],
    }
    return passes, attempted, failed, notes, metrics, plain["numpy"], detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--small", action="store_true", help="reduced inputs (the self-test uses them)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no package source at {SRC / 'repro'}; run from a full checkout")
    deadline = time.monotonic() + DEADLINE_S
    measure = _per_layer if args.trace else _end_to_end
    try:
        passes, attempted, failed, notes, metrics, numpy_version, detail = measure(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return _fail(str(exc))
    reference = passes[0]["cells"]

    outcomes: dict[str, int] = {}
    for cell in reference:
        outcomes[cell[1]] = outcomes.get(cell[1], 0) + 1
    print("provenance:", json.dumps(_provenance(args, numpy_version), sort_keys=True))
    print(f"workload: {args.workload}  cells per pass: {len(reference)}  passes: {len(passes)}")
    print(f"digest: {_workload_digest(reference)}")
    print("outcomes:", json.dumps(outcomes, sort_keys=True))
    print("detail:", json.dumps(detail))
    print(f"failed_frac: {failed / attempted:.6f}  ({failed} of {attempted} cells)")
    for note in notes[:20]:
        print(f"FAILED {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    # Every failed cell is counted.  A cell that ran out of its event
    # budget produced no output to be wrong; any other failure (a raise,
    # an invariant violation, a failed check, a digest that does not
    # repeat) or a traced count that does not repeat makes it incorrect.
    wrong = [n for n in notes if ": over_budget: " not in n]
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
