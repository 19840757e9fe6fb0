"""Fleet-scale sustained load: arrival streams in, real migrations out.

This is the run mode of the paper's 300-node Gideon cluster experiments:
processes arrive continuously (one seeded stream per node, see
:class:`repro.cluster.loadgen.ArrivalStream`), every node takes migration
trigger decisions *locally* against its own gossip view through a
pluggable :class:`repro.cluster.policy.MigrationPolicy`, and the decision
log is executed as real (possibly multi-hop) remote-paging migrations by
the inherited :class:`repro.cluster.scheduler.SchedulerDriver` machinery —
faults, chaos, and the invariant checker included.

Everything is a pure function of the seed: two runs of the same
:class:`repro.cluster.topology.SustainedSpec` produce byte-identical
reports (``tests/cluster/test_sustained.py`` pins this, and two golden
scenarios pin it across releases).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..config import SimulationConfig
from ..errors import ConfigurationError
from ..sim import Simulator, Timeout
from .loadgen import ArrivalStream, ProcessArrival
from .scheduler import ClusterScheduler, SchedulerDriveResult, SchedulerDriver
from .topology import FILE_SERVER, NodeGraph, SustainedSpec, make_strategy


@dataclass(frozen=True, slots=True)
class UtilizationSample:
    """One tick of the cluster-utilization monitor."""

    time: float
    #: Worker nodes with at least one runnable process.
    busy_nodes: int
    mean_load: float
    #: Cumulative migration count at this instant.
    migrations: int


@dataclass(slots=True)
class SustainedReport:
    """Deterministic summary of one sustained-load horizon."""

    nodes: int
    policy: str
    scheme: str
    seed: int
    arrivals: int
    completed: int
    makespan: float
    migrations: int
    total_frozen_time: float
    #: ``{"t", "task", "src", "dst"}`` per decision, in decision order.
    decisions: list[dict] = field(default_factory=list)
    utilization: list[UtilizationSample] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "policy": self.policy,
            "scheme": self.scheme,
            "seed": self.seed,
            "arrivals": self.arrivals,
            "completed": self.completed,
            "makespan": self.makespan,
            "migrations": self.migrations,
            "total_frozen_time": self.total_frozen_time,
            "decisions": list(self.decisions),
            "utilization": [
                [s.time, s.busy_nodes, s.mean_load, s.migrations]
                for s in self.utilization
            ],
        }


@dataclass(slots=True)
class SustainedResult:
    """Full outcome: the summary plus the executed migrations."""

    report: SustainedReport
    drive: SchedulerDriveResult

    def to_dict(self) -> dict:
        return {
            "report": self.report.to_dict(),
            "executed_migrants": [m.name for m in self.drive.migrants],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class SustainedLoadDriver(SchedulerDriver):
    """Runs a :class:`SustainedSpec` end to end.

    Placements come from the arrival stream (one
    :class:`repro.workloads.synthetic.SequentialWorkload` per arrival,
    sized by its drawn footprint), CPU demand comes from the drawn
    lifetimes — not from the workload trace, whose estimate is
    milliseconds and could never build up sustained load — and phase 1
    always runs decentralized: a real :class:`GossipLoadMap` on the plan
    simulator feeds each node's :class:`MigrationPolicy`.
    """

    def __init__(
        self,
        graph: NodeGraph,
        sustained: SustainedSpec,
        config: SimulationConfig | None = None,
    ) -> None:
        from ..workloads.synthetic import SequentialWorkload

        cfg = config if config is not None else SimulationConfig()
        if sustained.prefetch_policy is not None:
            # The spec-level name wins over (and lands in) the config, so
            # every migration the driver decides resolves the same policy
            # through ScenarioRuntime's context threading.
            cfg = cfg.with_(prefetch_policy=sustained.prefetch_policy)
        worker_nodes = tuple(n for n in graph.nodes if n != FILE_SERVER)
        if len(worker_nodes) < 2:
            raise ConfigurationError(
                "a sustained run needs at least two worker nodes"
            )
        stream = ArrivalStream(sustained.arrivals, seed=cfg.seed, nodes=worker_nodes)
        arrivals = stream.all_arrivals()
        if not arrivals:
            raise ConfigurationError(
                "the arrival stream drew no arrivals; raise rate_hz or horizon_s"
            )
        page_size = cfg.hardware.page_size
        super().__init__(
            graph,
            [
                (SequentialWorkload(a.memory_bytes, page_size=page_size), a.node)
                for a in arrivals
            ],
            strategy_factory=lambda: make_strategy(sustained.scheme),
            config=cfg,
            balance_interval=sustained.balance_interval_s,
            load_gap_threshold=sustained.load_gap_threshold,
            policy=sustained.policy,
            decentralized=True,
            gossip_interval_s=sustained.gossip_interval_s,
            arrival_times=[a.time for a in arrivals],
            task_cpu_seconds=[a.cpu_seconds for a in arrivals],
        )
        self.sustained = sustained
        self.stream = stream
        self.arrivals: tuple[ProcessArrival, ...] = arrivals
        self.worker_nodes = worker_nodes
        self.samples: list[UtilizationSample] = []
        self.report: SustainedReport | None = None
        #: The shared sampling path (docs/OBSERVABILITY.md, "Fleet
        #: telemetry"): the phase-1 ``utilization-sampler`` process drives
        #: one :class:`repro.obs.fleet.FleetTelemetry` tick per cadence.
        #: When ``obs.fleet`` is armed this IS the caller's collector;
        #: otherwise a throwaway instance carries the utilization hook
        #: alone.  Either way the sampler's event schedule is identical,
        #: which is what keeps armed runs byte-identical to unarmed ones.
        self.telemetry = None
        #: Optional :class:`repro.obs.slo.SLOMonitor` evaluated online on
        #: every sampling tick (utilization imbalance, mean load...).
        self.slo_monitor = None

    # ------------------------------------------------------------------
    def _spawn_monitors(self, sim: Simulator, scheduler: ClusterScheduler) -> None:
        from ..obs.fleet import FleetTelemetry

        self.samples = []
        obs = self.obs
        fleet = obs.fleet if obs is not None else None
        telemetry = fleet if fleet is not None else FleetTelemetry()
        if fleet is not None:
            # Align the phase-2 gauge samplers to this run's cadence.
            fleet.interval_s = self.sustained.sample_interval_s
        self.telemetry = telemetry
        monitor = self.slo_monitor
        worker = self.worker_nodes
        gossip = scheduler.gossip
        pending = scheduler._pending_freeze
        decisions = scheduler.decisions
        task_by_name = {t.name: t for t in scheduler.tasks}
        out_counts = {n: 0 for n in worker}
        consumed = [0]  # decisions folded into out_counts so far
        # Hoisted gossip internals: the map object is fixed for the whole
        # run, so resolve its view/suspect tables once, not per tick.
        views = getattr(gossip, "views", None) if gossip is not None else None
        suspect_sets = (
            getattr(gossip, "_suspects", None) if gossip is not None else None
        )

        def tick(t: float) -> None:
            # The legacy utilization sample is now a thin view over the
            # shared tick: same loads pass, same cadence, same values —
            # SustainedReport.utilization serializes unchanged.
            loads = scheduler._loads()
            w = [loads[n] for n in worker]
            busy = sum(1 for v in w if v > 0)
            mean = sum(w) / len(w)
            self.samples.append(
                UtilizationSample(
                    time=t,
                    busy_nodes=busy,
                    mean_load=mean,
                    migrations=scheduler.migrations,
                )
            )
            if monitor is not None:
                monitor.evaluate(
                    t,
                    {
                        "utilization_imbalance": float(max(w) - min(w)),
                        "mean_load": mean,
                        "busy_nodes": float(busy),
                        "busy_fraction": busy / len(w),
                    },
                )
            if fleet is None:
                return
            for decision in decisions[consumed[0]:]:
                if decision.src in out_counts:
                    out_counts[decision.src] += 1
            consumed[0] = len(decisions)
            in_flight = {n: 0 for n in worker}
            for name in pending:
                task = task_by_name.get(name)
                if task is not None and task.node in in_flight:
                    in_flight[task.node] += 1
            for n in worker:
                fleet.push(n, "load", t, float(loads[n]))
                fleet.push(n, "in_flight_migrations", t, float(in_flight[n]))
                fleet.push(n, "migrations_out", t, float(out_counts[n]))
            if views is not None:
                for n in worker:
                    entries = views.get(n)
                    stale = (
                        t - min(e.sampled_at for e in entries.values())
                        if entries
                        else 0.0
                    )
                    fleet.push(n, "gossip_staleness_s", t, stale)
            if suspect_sets is not None:
                for n in worker:
                    fleet.push(
                        n, "suspected_peers", t, float(len(suspect_sets[n]))
                    )

        telemetry.add_tick_hook(tick)

        def sampler():
            while any(t.finished_at is None for t in scheduler.tasks):
                telemetry.tick(sim.now)
                yield Timeout(self.sustained.sample_interval_s)

        sim.spawn(sampler(), name="utilization-sampler")

    def plan(self):
        report, decisions = super().plan()
        completed = sum(
            1 for v in report.per_task_completion.values() if v == v  # non-NaN
        )
        self.report = SustainedReport(
            nodes=len(self.worker_nodes),
            policy=self.sustained.policy,
            scheme=self.sustained.scheme,
            seed=self.config.seed,
            arrivals=len(self.arrivals),
            completed=completed,
            makespan=report.makespan,
            migrations=report.migrations,
            total_frozen_time=report.total_frozen_time,
            decisions=[
                {"t": d.time, "task": d.task, "src": d.src, "dst": d.dst}
                for d in decisions
            ],
            utilization=list(self.samples),
        )
        return report, decisions

    def execute(self, obs=None) -> SustainedResult:
        """Phases 1 + 2; returns the summary plus executed migrations."""
        drive = super().execute(obs=obs)
        assert self.report is not None  # set by plan()
        return SustainedResult(report=self.report, drive=drive)


def run_sustained(spec, obs=None) -> SustainedResult:
    """Execute a sustained :class:`ScenarioSpec` (``spec.sustained`` set)."""
    if spec.sustained is None:
        raise ConfigurationError("scenario has no sustained section")
    driver = SustainedLoadDriver(spec.graph, spec.sustained, config=spec.config)
    return driver.execute(obs=obs)


__all__ = [
    "SustainedLoadDriver",
    "SustainedReport",
    "SustainedResult",
    "UtilizationSample",
    "run_sustained",
]
