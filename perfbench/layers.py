"""Per-layer host-time tracing, installed from outside the package.

Nothing in ``src/`` knows about this module.  :func:`install` replaces a
fixed set of public entry points of each package layer with timing
wrappers, at class level, before the benchmark builds anything, so every
object the workloads create calls through them.  It also wraps
``Simulator.spawn``: each process's generator is resumed through a
timing proxy keyed by the generator function it runs, which splits the
host time of the migrant executor, the daemons and the scheduler from
the event loop that resumes them.

A wrapped call's *self* time is its duration minus the duration of the
wrapped calls made inside it; the self times of one pass add up to the
traced part of its wall time.  Tracing is a pure observer: it reads
state and never changes what the simulator computes, which the benchmark
checks by comparing result digests of traced and untraced passes.
"""

from __future__ import annotations

import functools
import weakref
from collections import Counter, defaultdict
from time import perf_counter

#: Generator function (``co_qualname``) -> key of the process proxy; any
#: other process is charged to ``sim.process``.
PROCESS_KEYS = {
    "MigrantExecutor._run": "migration.execute",
    "InfoDaemon._run": "node.infod",
    "GossipLoadMap._daemon": "cluster.gossip",
    "ClusterScheduler._task_process": "cluster.scheduler",
    "ClusterScheduler._balancer": "cluster.scheduler",
    "SustainedLoadDriver._spawn_monitors.<locals>.sampler": "cluster.scheduler",
    "ScenarioRuntime._migrant": "cluster.session",
}

#: Layers in report order; a key's layer is the text before its first dot.
LAYERS = (
    "sim", "workloads", "migration", "core", "mem", "node",
    "net", "cluster", "faults", "check", "obs",
)


class LayerTracer:
    """Accumulates calls, self time and inclusive time per wrapper key."""

    def __init__(self) -> None:
        #: Child-time accumulators of the open wrapped calls; the bottom
        #: entry collects the time of top-level wrapped calls.
        self.stack = [0.0]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.events = 0
        self.links_used = 0

    def reset(self) -> None:
        """Zero every accumulator (between passes).  In place: the
        installed wrappers hold references to these containers."""
        self.stack[:] = [0.0]
        self.calls.clear()
        self.self_s.clear()
        self.incl_s.clear()
        self.events = self.links_used = 0

    # -- wrappers --------------------------------------------------------
    def timed(self, key: str, fn):
        """``fn`` wrapped to charge its time to ``key``."""
        stack = self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                tracer.self_s[key] += dt - child
                tracer.incl_s[key] += dt
                tracer.calls[key] += 1

        return wrapper

    def timed_factory(self, key: str, factory):
        """``factory`` wrapped so each callable it returns is timed."""

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            made = factory(*args, **kwargs)
            if isinstance(made, tuple):
                return tuple(self.timed(key, f) for f in made)
            return self.timed(key, made)

        return wrapper

    def counted_loop(self, fn):
        """``Simulator.run``/``run_until_complete`` wrapped to count the
        heap entries the loop pops: pushes made while it ran plus the heap
        it started with, minus the heap it left."""
        timed = self.timed("sim.loop", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            queue = sim._queue
            seq0, size0 = queue._seq, len(queue._heap)
            try:
                return timed(sim, *args, **kwargs)
            finally:
                tracer.events += queue._seq - seq0 + size0 - len(queue._heap)

        return wrapper

    def proxied_spawn(self, spawn):
        """``Simulator.spawn`` wrapped to resume generators via a proxy."""
        tracer = self

        @functools.wraps(spawn)
        def wrapper(sim, generator, name="process"):
            qualname = getattr(getattr(generator, "gi_code", None), "co_qualname", "")
            key = PROCESS_KEYS.get(qualname, "sim.process")
            return spawn(sim, _TimedGenerator(generator, key, tracer), name)

        return wrapper

    def timed_generator_factory(self, key: str, factory):
        """A generator function (``Workload.trace``) whose resumes are timed."""
        tracer = self

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return _TimedGenerator(factory(*args, **kwargs), key, tracer)

        return wrapper

    def watch_network(self, init):
        """``Network.__init__`` wrapped to count, when each network is
        collected, the links that carried at least one message."""
        tracer = self

        @functools.wraps(init)
        def wrapper(net, *args, **kwargs):
            init(net, *args, **kwargs)
            weakref.finalize(net, tracer._count_used_links, net._links)

        return wrapper

    def _count_used_links(self, links: dict) -> None:
        for link in links.values():
            a, b = link.endpoints
            if link.direction(a, b).total_messages or link.direction(b, a).total_messages:
                self.links_used += 1

    # -- read-out --------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for key, value in self.self_s.items():
            layer = key.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + value
        return out

    def traced_s(self) -> float:
        """Time spent inside any wrapped call."""
        return self.stack[0]


class _TimedGenerator:
    """Generator proxy: every resume (``send`` or ``next``) is charged to
    one key."""

    __slots__ = ("_gen", "_key", "_tracer")

    def __init__(self, gen, key: str, tracer: LayerTracer) -> None:
        self._gen = gen
        self._key = key
        self._tracer = tracer

    def send(self, value):
        tracer = self._tracer
        stack = tracer.stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return self._gen.send(value)
        finally:
            dt = perf_counter() - t0
            child = stack.pop()
            stack[-1] += dt
            key = self._key
            tracer.self_s[key] += dt - child
            tracer.incl_s[key] += dt
            tracer.calls[key] += 1

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def throw(self, *args):
        return self._gen.throw(*args)

    def close(self):
        return self._gen.close()


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen


def install(tracer: LayerTracer) -> list[str]:
    """Wrap the layers' entry points at class level.

    Call once per process, after importing :mod:`repro` and before any
    simulator, cluster or workload object exists.  Returns the hooks
    (``Class.method``) the package no longer has: their metrics read 0
    until this module follows the rename.
    """
    missing: list[str] = []

    def _wrap(cls, name: str, wrapped, optional: bool = False) -> None:
        if name in cls.__dict__:
            setattr(cls, name, wrapped(cls.__dict__[name]))
        elif not optional:
            missing.append(f"{cls.__name__}.{name}")

    import repro.workloads.hpcc  # noqa: F401  (registers every kernel class)
    import repro.workloads.synthetic  # noqa: F401
    from repro.check.invariants import InvariantChecker
    from repro.check.oracle import DifferentialOracle
    from repro.cluster.cluster import Cluster
    from repro.cluster.gossip import GossipLoadMap
    from repro.cluster.scheduler import SchedulerDriver
    from repro.cluster.session import ScenarioRuntime
    from repro.core import leap, policy, prefetcher
    from repro.faults.lossy import LossyDirection
    from repro.mem.residency import ResidencyTracker
    from repro.migration import ampom, ffa, noprefetch, openmosix, precopy  # noqa: F401
    from repro.migration.base import MigrationStrategy
    from repro.net.link import Direction
    from repro.net.network import Network
    from repro.node.deputy import Deputy
    from repro.node.infod import InfoDaemon
    from repro.obs.journeys import JourneyLog
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import SpanTracer
    from repro.sim.kernel import Simulator
    from repro.workloads.base import Workload

    t = tracer.timed
    for name in ("run", "run_until_complete"):
        _wrap(Simulator, name, tracer.counted_loop)
    _wrap(Simulator, "spawn", tracer.proxied_spawn)

    for cls in _subclasses(Workload):
        _wrap(cls, "setup", lambda f: t("workloads.setup", f), optional=True)
        _wrap(
            cls, "trace", lambda f: tracer.timed_generator_factory("workloads.trace", f),
            optional=True,
        )

    for cls in _subclasses(MigrationStrategy):
        _wrap(cls, "perform", lambda f: t("migration.freeze", f), optional=True)
        _wrap(cls, "rehop", lambda f: t("migration.freeze", f), optional=True)

    policies = (
        prefetcher.AMPoMPrefetcher, leap.LeapPrefetcher, policy.NoPrefetchPolicy,
        policy.FixedReadAheadPolicy, policy.LinuxReadAheadPolicy,
    )
    for cls in policies:
        for sub in _subclasses(cls):
            _wrap(sub, "on_fault", lambda f: t("core.analyze", f), optional=sub is not cls)

    _wrap(ResidencyTracker, "absorb_arrivals", lambda f: t("mem.absorb", f))

    _wrap(Deputy, "serve_pages", lambda f: t("node.deputy_serve", f))
    _wrap(Deputy, "serve_syscall", lambda f: t("node.deputy_syscall", f))
    _wrap(InfoDaemon, "probe", lambda f: t("node.infod_probe", f))

    _wrap(Network, "__init__", tracer.watch_network)
    _wrap(Network, "connect", lambda f: t("net.build", f))
    _wrap(Direction, "transfer", lambda f: t("net.transfer", f))
    _wrap(Direction, "transfer_batch", lambda f: t("net.transfer", f))
    _wrap(LossyDirection, "transfer", lambda f: t("faults.lossy", f))

    _wrap(Cluster, "__init__", lambda f: t("cluster.build", f))
    _wrap(ScenarioRuntime, "__init__", lambda f: t("cluster.runtime_build", f))
    _wrap(ScenarioRuntime, "execute", lambda f: t("cluster.execute", f))
    _wrap(SchedulerDriver, "plan", lambda f: t("cluster.plan", f))
    _wrap(GossipLoadMap, "_deliver", lambda f: t("cluster.gossip", f))
    _wrap(GossipLoadMap, "view", lambda f: t("cluster.gossip_view", f))

    for name in ("on_sim_event", "on_request", "on_fault", "final_audit"):
        _wrap(InvariantChecker, name, lambda f: t("check.invariant", f))
    _wrap(InvariantChecker, "deep_audit", lambda f: t("check.deep_audit", f))
    _wrap(DifferentialOracle, "verify_analysis", lambda f: t("check.oracle", f))

    for name in (
        "complete", "complete_kv", "begin", "begin_kv", "end", "end_d",
        "instant", "instant_d", "counter",
    ):
        _wrap(SpanTracer, name, lambda f: t("obs.tracer", f))
    for name in ("span_site", "open_span_site", "instant_site", "wire_hook"):
        _wrap(SpanTracer, name, lambda f: tracer.timed_factory("obs.tracer", f))
    for name in ("count", "set_counter", "sample_gauge", "histogram"):
        _wrap(MetricsRegistry, name, lambda f: t("obs.metrics", f))
    for name in ("start", "record", "finish", "record_cluster", "on_detection"):
        _wrap(JourneyLog, name, lambda f: t("obs.journey", f))
    return missing


def layer_metrics(tracer: LayerTracer, counts: dict, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: ``name -> (value, unit)``.

    ``counts`` holds the simulated counts read from the pass's results
    (faults, prefetched and wasted pages, retransmits, drops, migrations,
    spans); everything else comes from the tracer.
    """
    c, s, inc = tracer.calls, tracer.self_s, tracer.incl_s
    layer = tracer.layer_self_s()
    prefetched = counts["pages_prefetched"]
    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("sim.events", tracer.events, "count")
    put("sim.self_s", layer["sim"], "s")
    put("sim.ns_per_event", layer["sim"] / tracer.events * 1e9 if tracer.events else 0.0, "ns")
    put("workloads.setup_s", s["workloads.setup"], "s")
    put("workloads.trace_s", s["workloads.trace"], "s")
    put("workloads.chunks", c["workloads.trace"], "count")
    put("migration.freeze_s", s["migration.freeze"], "s")
    put("migration.execute_s", s["migration.execute"], "s")
    put("migration.resumes", c["migration.execute"], "count")
    put("migration.faults", counts["faults"], "count")
    put("core.analyses", c["core.analyze"], "count")
    put("core.analyze_s", s["core.analyze"], "s")
    put(
        "core.prefetch_useful_ratio",
        (prefetched - counts["wasted_pages"]) / prefetched if prefetched else 0.0,
        "ratio",
    )
    put("mem.absorb_calls", c["mem.absorb"], "count")
    put("mem.absorb_s", s["mem.absorb"], "s")
    put("node.deputy_requests", c["node.deputy_serve"], "count")
    put("node.deputy_serve_s", s["node.deputy_serve"] + s["node.deputy_syscall"], "s")
    put("node.infod_probes", c["node.infod_probe"], "count")
    put("node.infod_s", s["node.infod"] + s["node.infod_probe"], "s")
    put("net.links_built", c["net.build"], "count")
    put("net.links_used", tracer.links_used, "count")
    put(
        "net.link_use_ratio",
        tracer.links_used / c["net.build"] if c["net.build"] else 0.0,
        "ratio",
    )
    put("net.build_s", s["net.build"], "s")
    put("net.transfers", c["net.transfer"], "count")
    put("net.transfer_s", s["net.transfer"], "s")
    put("cluster.gossip_s", s["cluster.gossip"] + s["cluster.gossip_view"], "s")
    put("cluster.gossip_views", c["cluster.gossip_view"], "count")
    put("cluster.scheduler_s", s["cluster.scheduler"] + s["cluster.plan"], "s")
    put("cluster.migrations", counts["migrations"], "count")
    put("cluster.runtime_build_s", s["cluster.runtime_build"] + s["cluster.build"], "s")
    put("cluster.session_s", s["cluster.session"] + s["cluster.execute"], "s")
    put("faults.lossy_transfers", c["faults.lossy"], "count")
    put("faults.lossy_s", s["faults.lossy"], "s")
    put("faults.retransmits", counts["retransmits"], "count")
    put("faults.messages_dropped", counts["messages_dropped"], "count")
    put("check.invariant_calls", c["check.invariant"] + c["check.deep_audit"], "count")
    put("check.invariant_s", s["check.invariant"] + s["check.deep_audit"], "s")
    put("check.oracle_calls", c["check.oracle"], "count")
    put("check.oracle_s", s["check.oracle"], "s")
    put("check.deep_audits", c["check.deep_audit"], "count")
    put("obs.spans", counts["spans"], "count")
    put("obs.tracer_s", s["obs.tracer"] + s["obs.metrics"], "s")
    put("obs.journey_s", s["obs.journey"], "s")
    put("phase.build_s", inc["cluster.build"], "s")
    put("phase.plan_s", inc["cluster.plan"], "s")
    put("phase.execute_s", inc["cluster.execute"], "s")
    for name in LAYERS:
        if name != "sim":
            put(f"{name}.self_s", layer[name], "s")
    put("bench.harness_s", max(wall_s - tracer.traced_s(), 0.0), "s")
    put("bench.traced_wall_s", wall_s, "s")
    return m
