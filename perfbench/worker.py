"""One measuring process of the benchmark; ``run.py`` starts it.

Usage: ``python3 perfbench/worker.py <mode> <workload> <seed> <seconds>
<min_passes> <small>``, with ``src`` on ``PYTHONPATH``.  Modes:

``setup``
    import the package, generate the inputs, note the monotonic clock at
    the first cell, take one speed-probe sample and exit;
``plain``
    the same, then run passes for about ``seconds`` (at least
    ``min_passes``), and report the peak resident set size (the probe
    adds well under 1 MiB to it);
``traced``
    as ``plain``, with the layer tracer installed before the inputs exist.

The last line of standard output is one JSON object.  ``time.monotonic``
is system-wide, so ``run.py`` subtracts its own reading, taken just
before it started this process, to get the set-up time.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time

import numpy

import probe

#: Cell time between two probe samples.
PROBE_INTERVAL_S = 0.5


def _run_pass(workload, tracer):
    """One pass over every cell.

    Between cells, every ``PROBE_INTERVAL_S`` of cell time, the speed
    probe samples the host.  ``wall_s`` is the host time of the cells
    alone; ``norm_s`` scales each stretch of cells between two probe
    samples by the mean of those samples (see ``probe.py``).
    """
    if tracer is not None:
        tracer.reset()
    cells = []
    wall = norm = stretch = 0.0
    before = probe.unit_s()
    for i, cell in enumerate(workload.cells, 1):
        # Each cell starts from a collected heap, so neither its time nor
        # the peak resident set depends on when the previous cell's
        # garbage happens to be collected.
        gc.collect()
        t0 = time.perf_counter()
        cells.append(workload.run_cell(cell))
        stretch += time.perf_counter() - t0
        if stretch >= PROBE_INTERVAL_S or i == len(workload.cells):
            after = probe.unit_s()
            wall += stretch
            norm += stretch * probe.speed_scale((before + after) / 2)
            before, stretch = after, 0.0
    out = {
        "wall_s": wall,
        "norm_s": norm,
        "cells": [[c.label, c.outcome, c.failure, c.digest] for c in cells],
    }
    if tracer is not None:
        from layers import layer_metrics
        from workloads import COUNT_KEYS

        counts = {k: sum(c.counts[k] for c in cells) for k in COUNT_KEYS}
        del cells
        gc.collect()  # runs the network finalizers that count used links
        out["layers"] = layer_metrics(tracer, counts, wall)
    return out


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, min_passes, small = argv
    tracer, missing = None, []
    if mode == "traced":
        import layers

        tracer = layers.LayerTracer()
        missing = layers.install(tracer)
    import workloads

    workload = workloads.WORKLOADS[name](int(seed), small=small == "1")
    first_cell = time.monotonic()
    report = {
        "first_cell": first_cell,
        "probe_unit_s": probe.unit_s(),
        "numpy": numpy.__version__,
        "missing_hooks": missing,
    }
    if mode != "setup":
        # Passes until the next one would end past ``seconds`` (judged by
        # the slowest so far), but at least ``min_passes``.
        passes = []
        end = first_cell + float(seconds)
        while len(passes) < int(min_passes) or (
            time.monotonic() + max(p["wall_s"] for p in passes) <= end
        ):
            passes.append(_run_pass(workload, tracer))
        report["passes"] = passes
        report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
