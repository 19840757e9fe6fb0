"""Extension: VM migration with multi-process access streams (section 7).

The paper's future-work proposal: "AMPoM can be extended to consider
memory access streams from multiple processes in a virtual machine in
order to perform more effective prefetching."

The simulated VM time-slices six sequential guest processes one reference
at a time, so same-stream references sit six positions apart in the fault
stream — beyond ``dmax = 4``, where the published algorithm's stride
detection is blind.  Four variants:

* ``NoPrefetch``          — demand paging baseline;
* ``AMPoM (eq.3 only)``   — the paper's algorithm without the platform
  read-ahead floor: the interleaving zeroes its locality score and its
  prefetching collapses to demand paging (the problem section 7 names);
* ``VM-AMPoM (eq.3 only)``— per-guest-process windows: each window sees a
  clean stride-1 stream and prefetching recovers;
* ``AMPoM + floor``       — the stock configuration; the Linux swap-in
  read-ahead floor turns every fault into an 8-page read-ahead of the
  *current* stream, which also rescues forward-sequential guests (a
  finding of this reproduction, recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.runner import MigrationRun
from repro.core.policy import POLICIES
from repro.core.vm_prefetcher import VmAmpomPrefetcher
from repro.experiments import figures
from repro.metrics.report import format_table
from repro.migration.ampom import AmpomMigration
from repro.migration.noprefetch import NoPrefetchMigration
from repro.units import mib
from repro.workloads.multiprocess import MultiProcessWorkload
from repro.workloads.synthetic import SequentialWorkload

from ._common import emit


def _vm():
    return MultiProcessWorkload(
        [SequentialWorkload(mib(4), sweeps=2) for _ in range(6)], slice_refs=1
    )


def _config(min_zone: int):
    base = figures.scaled_config(figures.DEFAULT_SCALE)
    return base.with_(ampom=replace(base.ampom, min_zone_pages=min_zone))


def _run(variant: str):
    workload = _vm()
    if variant == "NoPrefetch":
        strategy, config = NoPrefetchMigration(), _config(0)
    elif variant == "AMPoM (eq.3 only)":
        strategy, config = AmpomMigration(), _config(0)
    elif variant == "VM-AMPoM (eq.3 only)":
        # Boundaries only the workload knows: register a closure over
        # them under a policy-registry name.
        POLICIES["vm-ampom"] = lambda ctx, w=workload: VmAmpomPrefetcher(
            ctx.ampom, ctx.hardware, w.process_boundaries()
        )
        strategy = AmpomMigration(prefetch_policy="vm-ampom")
        config = _config(0)
    else:  # "AMPoM + floor"
        strategy, config = AmpomMigration(), _config(8)
    return MigrationRun(workload, strategy, config=config).execute()


VARIANTS = (
    "NoPrefetch",
    "AMPoM (eq.3 only)",
    "VM-AMPoM (eq.3 only)",
    "AMPoM + floor",
)


def _sweep():
    return {v: _run(v) for v in VARIANTS}


def bench_vm_migration(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit(
        "vm_migration",
        format_table(
            ["variant", "fault requests", "prefetched", "total s", "stall s"],
            [
                [
                    name,
                    r.counters.page_fault_requests,
                    r.counters.pages_prefetched,
                    r.total_time,
                    r.budget.stall,
                ]
                for name, r in results.items()
            ],
        ),
    )
    demand = {v: r.counters.page_fault_requests for v, r in results.items()}
    totals = {v: r.total_time for v, r in results.items()}
    # The published algorithm alone is blind to the 6-way interleave.
    assert demand["AMPoM (eq.3 only)"] > 0.9 * demand["NoPrefetch"]
    # Per-process windows recover most of the prefetching...
    assert demand["VM-AMPoM (eq.3 only)"] < demand["AMPoM (eq.3 only)"] / 2
    assert totals["VM-AMPoM (eq.3 only)"] < totals["AMPoM (eq.3 only)"] * 0.75
    # ...and the read-ahead floor independently rescues sequential guests.
    assert demand["AMPoM + floor"] < demand["AMPoM (eq.3 only)"] / 2
