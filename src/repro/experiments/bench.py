"""Wall-clock throughput benchmark harness (``repro bench``).

Times every case of :data:`CASES`; the first four mirror
``benchmarks/bench_simulator_throughput.py`` — the simulation engine's hot
paths — but are measured with plain ``time.perf_counter`` so the harness runs anywhere (CI smoke jobs, dev
boxes without pytest-benchmark) and emits a machine-readable JSON record.

Each case reports its best-of-N wall time plus a *score*: the wall time
divided by a small pure-Python calibration loop timed on the same machine
in the same process.  Scores factor out much of the host's raw speed, so a
committed baseline (``benchmarks/baselines/BENCH_throughput.json``) can
gate regressions across heterogeneous CI runners; ``repro bench
--against <baseline>`` exits non-zero when any case's score exceeds the
baseline by more than ``--max-regression`` (default 25%), and refuses
with exit 2 a baseline recorded under different ``REPRO_*`` settings
(:func:`env_differences`).

Absolute times on different machines are still not comparable — only
scores are, and even those are a smoke test, not a microbenchmark.  For
careful measurements use ``pytest benchmarks/bench_simulator_throughput.py
--benchmark-only``.

Every record and history line carries a :func:`provenance` block (commit,
dirty flag, ``REPRO_*`` variables, Python and numpy versions, CPU count),
so a number can be traced to what produced it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy

from ..cluster.runner import MigrationRun
from ..config import CheckSpec, SimulationConfig
from ..migration.ampom import AmpomMigration
from ..migration.executor import ExecutionResult
from ..migration.noprefetch import NoPrefetchMigration
from ..migration.openmosix import OpenMosixMigration
from ..sim import Simulator
from ..units import mib
from ..workloads.synthetic import SequentialWorkload, UniformRandomWorkload

#: Bump when the JSON shape or the case set changes meaning.
BENCH_FORMAT = 1

#: Default output path, relative to the current working directory.
DEFAULT_OUT = Path("benchmarks") / "results" / "BENCH_throughput.json"

#: Committed baseline used by the CI regression gate.
DEFAULT_BASELINE = Path("benchmarks") / "baselines" / "BENCH_throughput.json"

#: Append-only perf trajectory, one JSON line per bench run.
DEFAULT_HISTORY = Path("benchmarks") / "results" / "history.jsonl"

#: Allowed slowdown of a case's score vs the baseline before failing.
DEFAULT_MAX_REGRESSION = 0.25


def _run_local_fast(obs=None) -> ExecutionResult:
    w = SequentialWorkload(mib(8), sweeps=4)
    return MigrationRun(w, OpenMosixMigration(), obs=obs).execute()


def _run_demand_paging(obs=None) -> ExecutionResult:
    w = SequentialWorkload(mib(4))
    return MigrationRun(w, NoPrefetchMigration(), obs=obs).execute()


def _run_ampom_pipeline(obs=None, config=None) -> ExecutionResult:
    w = SequentialWorkload(mib(4), sweeps=2)
    return MigrationRun(w, AmpomMigration(), config=config, obs=obs).execute()


def _run_ampom_checked(obs=None) -> ExecutionResult:
    """``ampom_pipeline`` with the invariant checker and the differential
    oracle on.

    Compare this case's score against ``ampom_pipeline`` to see what the
    check layer costs on a prefetch-heavy run; the committed baseline
    gates a check-layer slowdown (see docs/CHECKS.md).
    """
    checked = SimulationConfig().with_(checks=CheckSpec(enabled=True))
    return _run_ampom_pipeline(obs=obs, config=checked)


def _run_random_faults(obs=None) -> ExecutionResult:
    w = UniformRandomWorkload(mib(8), n_references=8192)
    return MigrationRun(w, AmpomMigration(), obs=obs).execute()


def _run_three_hop(obs=None) -> ExecutionResult:
    """Multi-hop re-migration (home -> n1 -> n2) through the scenario
    runtime: quiesce, transit deputy, routed paging — the section 3.2
    machinery end to end."""
    from ..cluster.session import ScenarioRuntime
    from ..cluster.topology import HOME, MigrantSpec, NodeGraph, ScenarioSpec

    w = SequentialWorkload(mib(4), sweeps=2)
    spec = ScenarioSpec(
        graph=NodeGraph((HOME, "n1", "n2")),
        migrants=(
            MigrantSpec(
                workload=w,
                strategy=AmpomMigration(),
                path=(HOME, "n1", "n2"),
                hop_delays=(0.1,),
            ),
        ),
    )
    return ScenarioRuntime(spec, obs=obs).execute()[0]


def _run_node_churn(obs=None):
    """One seeded chaos cell: the three-hop preset under a random
    whole-node crash schedule with the invariant checker forced on —
    the node-failure machinery (abort, repair, kill, detection) end to
    end (see docs/FAULTS.md)."""
    from ..cluster.chaos import chaos_cell

    # Seed 2 draws a schedule the migrant survives (one crash, full
    # recovery), so the case times the whole run, not an early kill.
    run, violation = chaos_cell("three-hop", "AMPoM", seed=2)
    assert violation is None, f"chaos cell violated an invariant: {violation}"
    return run


def _run_ampom_traced(obs=None) -> ExecutionResult:
    """``ampom_pipeline`` with the full obs bundle armed.

    Compare this case's score against ``ampom_pipeline`` to see what the
    span tracer + metrics registry cost on a prefetch-heavy run (see
    docs/PERFORMANCE.md).
    """
    from ..obs import Observability

    return _run_ampom_pipeline(obs=obs if obs is not None else Observability.enabled())


def _run_cluster_300_smoke(obs=None):
    """The ROADMAP's 300-node sustained sweep as a CI smoke case.

    The full ``cluster_300`` preset — background trickle on every node
    plus eight hotspots — must *complete* inside the CI bench jobs' time
    budget; the score then gates regressions like any other case.
    """
    from ..cluster.sustained import run_sustained
    from ..cluster.topology import build_preset

    res = run_sustained(build_preset("cluster_300", seed=3), obs=obs)
    assert res.report.completed == res.report.arrivals
    return res


def _run_cluster_sustained(obs=None):
    """Fleet-scale sustained load end to end: the ``cluster_32`` arrival
    stream, decentralized threshold decisions off a real gossip map, and
    every decided move executed as a real remote-paging migration (see
    docs/CLUSTER.md)."""
    from ..cluster.sustained import run_sustained
    from ..cluster.topology import build_preset

    res = run_sustained(build_preset("cluster_32", seed=3), obs=obs)
    assert res.report.completed == res.report.arrivals
    return res


def _run_cluster_sustained_telemetry(obs=None):
    """``cluster_sustained`` with fleet telemetry + journey traces armed.

    Compare this case's score against ``cluster_sustained`` to see what
    the fleet collector, per-node gauges and journey log cost on a
    sustained run; the committed baseline pins the armed/unarmed ratio
    (see docs/PERFORMANCE.md and docs/OBSERVABILITY.md).  The case also
    asserts exact journey reconciliation on every timed run.
    """
    from ..cluster.sustained import run_sustained
    from ..cluster.topology import build_preset
    from ..obs import Observability

    bundle = obs if obs is not None else Observability.enabled(
        trace=False, metrics=False, fleet=True, journeys=True
    )
    res = run_sustained(build_preset("cluster_32", seed=3), obs=bundle)
    assert res.report.completed == res.report.arrivals
    if bundle.journeys is not None:
        mismatches = bundle.journeys.reconcile(report=res.report)
        assert not mismatches, f"journeys failed to reconcile: {mismatches}"
    return res


def _run_arena(obs=None):
    """A small prefetch-policy tournament (see docs/POLICIES.md): two
    policies x two kernels under the invariant checker, the whole
    registry-resolution and policy-executor path included.  The returned
    summary is asserted non-degenerate on every timed run."""
    from .arena import run_arena

    report = run_arena(
        policies=("ampom", "leap"),
        kernels=("DGEMM", "RandomAccess"),
        profiles=("lan",),
        fault_plans=("none",),
        scale=1 / 32,
    )
    assert len(report["cells"]) == 4
    assert all(c["fault_requests"] > 0 for c in report["cells"])
    return report


#: name -> runner (optionally taking an Observability bundle); the first
#: four are the same workloads as the pytest cases.
CASES: dict[str, Callable[[], ExecutionResult]] = {
    "local_fast": _run_local_fast,
    "demand_paging": _run_demand_paging,
    "ampom_pipeline": _run_ampom_pipeline,
    "random_faults": _run_random_faults,
    "three_hop": _run_three_hop,
    "node_churn": _run_node_churn,
    "ampom_traced": _run_ampom_traced,
    "ampom_checked": _run_ampom_checked,
    "cluster_sustained": _run_cluster_sustained,
    "cluster_sustained_telemetry": _run_cluster_sustained_telemetry,
    "cluster_300_smoke": _run_cluster_300_smoke,
    "arena": _run_arena,
}


def calibrate(repeats: int = 3) -> float:
    """Best-of-N time of a fixed pure-Python loop, the score denominator."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i & 7
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    # Guard against a pathological zero on very coarse clocks.
    return max(best, 1e-9)


def _git(*argv: str) -> str | None:
    """``git argv`` run in this package's directory; ``None`` when there
    is no git or no enclosing checkout."""
    try:
        out = subprocess.run(
            ["git", *argv],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    """What produced a bench record: the source commit and whether the
    tracked tree differs from it (both ``None`` outside a git checkout),
    the ``REPRO_*`` variables set, the Python and numpy versions, and the
    CPU count."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "repro_env": {
            k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }


def count_events(fn: Callable[[], object]) -> int:
    """Run ``fn`` once; return the events fired by every simulator it
    built in this process (:attr:`Simulator.events_fired`).

    A deterministic work count to read next to the noisy wall time: the
    same for a given case on any host.  Runs forked to worker processes
    (``REPRO_JOBS``) are not counted.
    """
    sims: list[Simulator] = []
    init = Simulator.__init__

    def recording_init(self: Simulator) -> None:
        init(self)
        sims.append(self)

    Simulator.__init__ = recording_init
    try:
        fn()
    finally:
        Simulator.__init__ = init
    return sum(sim.events_fired for sim in sims)


def time_case(fn: Callable[[], object], repeats: int) -> list[float]:
    """Wall-time ``fn`` ``repeats`` times; returns every measurement."""
    times: list[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def run_bench(repeats: int = 5, cases: dict[str, Callable[[], object]] | None = None) -> dict:
    """Run every case; return the JSON-ready result record."""
    if cases is None:
        cases = CASES
    calibration_s = calibrate()
    record: dict = {
        "format": BENCH_FORMAT,
        "provenance": provenance(),
        "repeats": repeats,
        "calibration_s": calibration_s,
        "cases": {},
    }
    for name, fn in cases.items():
        # The warm-up run, outside the measurement, also counts the work.
        events = count_events(fn)
        times = time_case(fn, repeats)
        best = min(times)
        record["cases"][name] = {
            "min_s": best,
            "mean_s": sum(times) / len(times),
            "times_s": times,
            "score": best / calibration_s,
            "events_fired": events,
        }
    return record


def compare(current: dict, baseline: dict, max_regression: float = DEFAULT_MAX_REGRESSION) -> list[str]:
    """Regression report: one line per case whose score regressed too far.

    Only cases present in both records are compared (so adding a case does
    not break an older baseline).  An empty list means the gate passes.
    """
    breaches: list[str] = []
    base_cases = baseline.get("cases", {})
    for name, cur in current.get("cases", {}).items():
        base = base_cases.get(name)
        if base is None:
            continue
        allowed = base["score"] * (1.0 + max_regression)
        if cur["score"] > allowed:
            slowdown = cur["score"] / base["score"]
            breaches.append(
                f"{name}: score {cur['score']:.1f} vs baseline {base['score']:.1f} "
                f"({slowdown:.2f}x, limit {1.0 + max_regression:.2f}x)"
            )
    return breaches


def env_differences(current: dict, baseline: dict) -> list[str]:
    """Sorted ``REPRO_*`` names set differently in the two records'
    provenance; non-empty means their timings are not comparable.

    A record without provenance (an older baseline) counts as recorded
    with no ``REPRO_*`` variable set.
    """
    envs = [
        (record.get("provenance") or {}).get("repro_env") or {}
        for record in (current, baseline)
    ]
    names = set(envs[0]) | set(envs[1])
    return sorted(k for k in names if envs[0].get(k) != envs[1].get(k))


def write_record(record: dict, out: Path | str = DEFAULT_OUT) -> Path:
    """Serialize a bench record to ``out`` (creating parent directories)."""
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def append_history(
    record: dict, path: Path | str = DEFAULT_HISTORY, timestamp: str | None = None
) -> Path:
    """Append one timestamped line for ``record`` to the history log.

    ``write_record`` overwrites its output in place, so the latest record
    alone carries no trajectory; the history file keeps one JSON line per
    bench run (``ts`` + provenance + calibration + per-case
    ``min_s``/``score``/``events_fired``) and is uploaded as a CI
    artifact.  Raw ``times_s`` samples are dropped — the log is for
    trends, not re-analysis.
    """
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    entry = {
        "ts": timestamp,
        "format": record.get("format"),
        "provenance": record.get("provenance"),
        "repeats": record.get("repeats"),
        "calibration_s": record.get("calibration_s"),
        "cases": {
            name: {
                "min_s": case["min_s"],
                "score": case["score"],
                "events_fired": case["events_fired"],
            }
            for name, case in record.get("cases", {}).items()
        },
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


__all__ = [
    "BENCH_FORMAT",
    "CASES",
    "DEFAULT_BASELINE",
    "DEFAULT_HISTORY",
    "DEFAULT_MAX_REGRESSION",
    "DEFAULT_OUT",
    "append_history",
    "calibrate",
    "compare",
    "count_events",
    "env_differences",
    "provenance",
    "run_bench",
    "time_case",
    "write_record",
]
