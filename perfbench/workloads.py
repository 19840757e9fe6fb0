"""The benchmark's three workloads: inputs from a seed, one pass, checks.

Each workload turns ``--seed`` into a list of cell inputs (plain tuples),
and ``run_cell`` builds the program objects for one cell from them and
runs it.  A pass runs every cell once, in order, in this process.  Every
cell returns a :class:`CellResult`: its outcome, why it failed the
benchmark's own checks (if it did), a digest of every simulated result it
produced, and the simulated counts the per-layer report needs.

Why these three:

* ``paper_matrix`` is the paper's evaluation sweep (figures 5-8, 11) and
  stresses the paging hot path; the 2-node cluster leaves ``net`` build
  and ``cluster`` near zero.  The seed draws the RandomAccess and FFT
  access orders.
* ``fleet_300`` is the 300-node sustained preset: the fleet substrate
  (full-mesh build, gossip, scheduler) does most of the work and paging
  little; it is the workload where host memory matters.
* ``chaos_armed`` is the fault-and-verification sweep: crash schedules,
  lossy links, the invariant checker, the differential oracle and the
  full observability bundle, over many small cells whose set-up counts.

The last two run fixed sweeps whose order the seed shuffles: their cost
depends on which streams and crash schedules they draw, by more than any
bound the benchmark could hold (see the classes).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

from repro.cluster.chaos import DEFAULT_PRESETS, DEFAULT_SCHEMES
from repro.cluster.session import ScenarioRuntime
from repro.cluster.sustained import run_sustained
from repro.cluster.topology import build_preset
from repro.config import CheckSpec, NodeFaultSpec
from repro.errors import InvariantViolation, MigrationError, SimulationError
from repro.experiments.figures import KERNELS, SCHEMES, run_one, scaled_config
from repro.obs import Observability
from repro.workloads.hpcc import kernel_sizes_mb

#: Size scale of the paper-matrix programs (1/16 of table 1).
MATRIX_SCALE = 1 / 16
#: Size scale of the chaos cells (the ``repro chaos`` default).
CHAOS_SCALE = 1 / 32
#: Simulated-event budget of one chaos cell.  The largest terminating
#: cell schedules under 5k events; the known lossy x crash livelocks
#: never terminate and must end here as ``over_budget``.
CHAOS_EVENT_BUDGET = 20_000
#: Arrival-stream seeds of the fleet runs (3 gives 125 arrivals and 224
#: decisions, 7 is the seed of the documented ``cluster_300`` run).
FLEET_SEEDS = (3, 7)
#: Crash-schedule seeds of the default chaos presets (``repro chaos``'s).
CRASH_SEEDS = (0, 1, 2)
#: ``three-hop-lossy`` crash-schedule seeds: a window holding the seeds
#: (20, 27, 28) on which lossy links plus node crashes livelock, so that
#: known defect shows on every run.
LOSSY_SEEDS = tuple(range(18, 30))
#: Cells that count in the layer report (see layers.layer_metrics).
COUNT_KEYS = (
    "faults", "pages_prefetched", "wasted_pages", "retransmits",
    "messages_dropped", "migrations", "spans",
)
#: Outcomes that end a cell as the model intends.
TERMINAL = ("completed", "killed", "exhausted")


@dataclass
class CellResult:
    """What one cell produced."""

    label: str
    outcome: str
    #: Why the cell failed its checks ("" when it passed).
    failure: str
    digest: str
    counts: dict = field(default_factory=dict)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=lambda o: type(o).__name__)
    return hashlib.sha256(text.encode()).hexdigest()


def _result_counts(results) -> dict:
    counts = dict.fromkeys(COUNT_KEYS, 0)
    for r in results:
        if r is None:
            continue
        c = r.counters
        counts["faults"] += c.total_faults
        counts["pages_prefetched"] += c.pages_prefetched
        counts["wasted_pages"] += r.wasted_pages
        counts["retransmits"] += c.retransmits
        counts["messages_dropped"] += c.messages_dropped
    return counts


def _finite(result) -> bool:
    return math.isfinite(result.total_time) and result.total_time > 0


class PaperMatrix:
    """Kernels x table-1 sizes x schemes, two-node migrations."""

    name = "paper_matrix"

    def __init__(self, seed: int, small: bool = False) -> None:
        self.scale = MATRIX_SCALE / 8 if small else MATRIX_SCALE
        self.cells = [
            (kernel, mb, scheme, seed)
            for kernel in KERNELS
            for mb in (kernel_sizes_mb(kernel)[:1] if small else kernel_sizes_mb(kernel))
            for scheme in SCHEMES
        ]

    def run_cell(self, cell) -> CellResult:
        kernel, mb, scheme, seed = cell
        # The seed draws RandomAccess's update stream and FFT's bit-reversal
        # order; DGEMM and STREAM are deterministic sweeps.
        kwargs = {"seed": seed} if kernel in ("RandomAccess", "FFT") else {}
        result = run_one(
            kernel, mb, scheme, scale=self.scale,
            config=scaled_config(self.scale, seed=seed), **kwargs,
        )
        failure = "" if _finite(result) and not result.extra.get("killed") else "not terminal"
        return CellResult(
            label=f"{kernel}/{mb}/{scheme}",
            outcome="completed",
            failure=failure,
            digest=_digest(result.to_dict()),
            counts=_result_counts([result]),
        )


class Fleet300:
    """The ``cluster_300`` sustained preset, every move a real migration."""

    name = "fleet_300"

    def __init__(self, seed: int, small: bool = False) -> None:
        # Fixed arrival streams: the streams of different seeds differ in
        # cost by a quarter (arrivals and decisions vary), which would hide
        # any smaller change.  The seed orders the runs.
        preset = "cluster_32" if small else "cluster_300"
        self.cells = [(preset, s) for s in FLEET_SEEDS]
        random.Random(seed).shuffle(self.cells)

    def run_cell(self, cell) -> CellResult:
        preset, seed = cell
        res = run_sustained(build_preset(preset, "AMPoM", seed=seed))
        report, results = res.report, res.drive.results
        failure = ""
        if report.completed != report.arrivals:
            failure = f"completed {report.completed} of {report.arrivals} arrivals"
        elif any(r is None or not _finite(r) for r in results):
            failure = "a migration did not terminate"
        counts = _result_counts(results)
        counts["migrations"] = report.migrations
        return CellResult(
            label=f"{preset}/seed={seed}",
            outcome="completed",
            failure=failure,
            digest=_digest([res.to_dict(), [r.to_dict() for r in results]]),
            counts=counts,
        )


class ChaosArmed:
    """Chaos presets x schemes under seeded crash schedules, fully armed."""

    name = "chaos_armed"

    def __init__(self, seed: int, small: bool = False) -> None:
        # The sweep itself is fixed: which cells complete and which get
        # killed decides most of a pass's cost, so cells drawn from
        # ``--seed`` would make the cost differ by a third between seeds.
        # The seed shuffles the cell order instead; each cell's digest
        # must not depend on what ran before it.
        seeds = CRASH_SEEDS[:1] if small else CRASH_SEEDS
        self.cells = [
            (preset, scheme, s, 1.0)
            for preset in DEFAULT_PRESETS
            for scheme in DEFAULT_SCHEMES
            for s in seeds
        ]
        # FFA is left out of the lossy preset: it rejects fault injection.
        lossy = (20,) if small else LOSSY_SEEDS
        self.cells += [
            ("three-hop-lossy", scheme, s, 0.5)
            for scheme in ("AMPoM", "openMosix", "NoPrefetch")
            for s in lossy
        ]
        random.Random(seed).shuffle(self.cells)

    def run_cell(self, cell) -> CellResult:
        preset, scheme, seed, crash_hz = cell
        spec = build_preset(preset, scheme, scale=CHAOS_SCALE, seed=seed)
        spec.config = spec.config.with_(
            node_faults=NodeFaultSpec(
                crash_rate_hz=crash_hz, mean_downtime_s=0.25, horizon_s=3.0
            ),
            checks=CheckSpec(enabled=True),
        )
        spec.max_events = CHAOS_EVENT_BUDGET
        obs = Observability.enabled(journeys=True)
        runtime = ScenarioRuntime(spec, obs=obs)
        results: list = []
        error = ""
        try:
            results = runtime.execute()
            killed = any(r.extra.get("killed") for r in results if r is not None)
            outcome = "killed" if killed else "completed"
        except InvariantViolation as exc:
            outcome, error = "violation", str(exc).splitlines()[0]
        except MigrationError as exc:
            outcome, error = "exhausted", str(exc).splitlines()[0]
        except SimulationError as exc:
            error = str(exc).splitlines()[0]
            outcome = "over_budget" if "max_events" in error else "raised"
        except Exception as exc:  # noqa: BLE001 - a raising cell is a counted failure
            outcome, error = "raised", f"{type(exc).__name__}: {exc}"
        failure = "" if outcome in TERMINAL else f"{outcome}: {error}"
        if not failure:
            mismatches = obs.journeys.reconcile(stats=runtime.node_stats)
            if mismatches:
                failure = "journeys do not reconcile: " + "; ".join(mismatches)
        counts = _result_counts(results)
        counts["spans"] = len(obs.tracer)
        record = {
            "outcome": outcome,
            "error": error,
            "node_stats": runtime.node_stats.as_dict(),
            "results": [r.to_dict() if r is not None else None for r in results],
        }
        return CellResult(
            label=f"{preset}/{scheme}/seed={seed}",
            outcome=outcome,
            failure=failure,
            digest=_digest(record),
            counts=counts,
        )


WORKLOADS = {w.name: w for w in (PaperMatrix, Fleet300, ChaosArmed)}
