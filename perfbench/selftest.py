"""Reduced-size self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

For each workload it runs ``run.py --small`` once untraced and once
traced and checks that

* every end-to-end and per-layer metric named in ``BENCHMARK.json`` is
  printed, with its unit;
* the result digests of the untraced and the traced run are equal (the
  layer tracer is a pure observer), and the traced run's counts repeated
  exactly across its passes (``run.py`` reports ``correct: false``
  otherwise);
* the only failed cells are the ``over_budget`` ones the benchmark
  expects from the known lossy x crash livelock, and the tracer found
  every layer hook it wraps.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, trace: int) -> tuple[dict, str, list[str]]:
    out = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--small",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = out.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest:"))
    detail = json.loads(next(line[len("detail:"):] for line in lines if line.startswith("detail:")))
    failed = [line for line in lines if line.startswith("FAILED ")]
    failed += [f"layer hook missing: {hook}" for hook in detail.get("missing_hooks", [])]
    return json.loads(lines[-1]), digest, failed


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace in (0, 1):
            result, digests[trace], failed = _run(workload, trace)
            where = f"{workload} --trace {trace}"
            if not result["correct"]:
                problems.append(f"{where}: correct is false")
            for metric in expected[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{where}: metric {metric['name']} missing or wrong unit")
            unexpected = [f for f in failed if ": over_budget: " not in f]
            problems += [f"{where}: {f}" for f in unexpected]
            print(f"{where}: {result['attempted']} cells, {result['failed']} failed")
        if digests[0] != digests[1]:
            problems.append(f"{workload}: traced digest differs from untraced")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
