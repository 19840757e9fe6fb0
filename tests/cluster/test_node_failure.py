"""End-to-end node-failure lifecycle tests (docs/FAULTS.md).

Each test pins one recovery path of the whole-node crash model under the
invariant checker: destination crash mid-freeze (abort + rollback),
transit-deputy crash (chain repair), home crash (process kill), plus the
failure detectors, the failure-aware scheduler, and the chaos harness.
"""

from __future__ import annotations

import pytest

from repro.cluster.chaos import ChaosReport, chaos_cell, run_chaos
from repro.cluster.cluster import Cluster
from repro.cluster.gossip import GossipLoadMap
from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import (
    FILE_SERVER,
    build_preset,
    scenario_from_dict,
)
from repro.config import CheckSpec, FaultSpec, NodeFaultSpec, SimulationConfig
from repro.errors import ConfigurationError
from repro.faults import NodeFaultPlan, NodeFaultStats
from repro.node.infod import InfoDaemon
from repro.sim import Simulator

SCALE = 1 / 32


def run_with_crashes(preset, scheme, windows, scale=SCALE, seed=0):
    """One preset run with an explicit crash schedule and checks on."""
    spec = build_preset(preset, scheme, scale=scale, seed=seed)
    spec.config = spec.config.with_(
        node_faults=NodeFaultSpec(crash_windows=tuple(windows)),
        checks=CheckSpec(enabled=True),
    )
    runtime = ScenarioRuntime(spec)
    results = runtime.execute()
    return runtime, results


# ----------------------------------------------------------------------
# recovery paths
# ----------------------------------------------------------------------


def test_destination_crash_aborts_and_rolls_back():
    # The destination dies while the migrant is frozen in transfer: the
    # migration aborts, partial transfers are written off, the stall is
    # charged to freeze, and the process survives at home to retry.
    runtime, results = run_with_crashes("pair", "AMPoM", [("dest", 0.02, 0.08)])
    stats = runtime.node_stats
    assert stats.crashes == 1
    assert stats.restarts == 1
    assert stats.migration_aborts >= 1
    assert stats.abort_freeze_s > 0.0
    assert stats.pages_abort_written_off > 0
    assert stats.kills == 0
    result = results[0]
    assert result.extra.get("killed") is None
    assert result.run_time > 0.0
    # The abort's wait shows up in the budget identity via freeze.
    budget = result.budget
    assert budget.freeze >= stats.abort_freeze_s


def test_transit_deputy_crash_triggers_chain_repair():
    # A mid-route deputy dies after the migrant moved past it: the page
    # chain is repaired by re-sourcing the lost residency from home.
    runtime, results = run_with_crashes("three-hop", "AMPoM", [("n1", 0.45, 0.8)])
    stats = runtime.node_stats
    assert stats.crashes == 1
    assert stats.chain_repairs >= 1
    assert stats.pages_rehomed > 0
    assert stats.kills == 0
    assert stats.detections >= 1  # protocol timeout counted as detection
    assert stats.mean_detection_latency_s > 0.0
    assert results[0].extra.get("killed") is None


def test_home_crash_kills_the_process():
    # openMosix semantics: a migrated process cannot outlive its home
    # node (deputy dependency), so a home crash kills it.
    runtime, results = run_with_crashes("pair", "AMPoM", [("home", 0.3, 10.0)])
    stats = runtime.node_stats
    assert stats.kills == 1
    assert stats.detections >= 1
    assert results[0].extra.get("killed") == 1.0


def test_home_crash_before_migration_kills_without_progress():
    runtime, results = run_with_crashes("pair", "openMosix", [("home", 0.0, 10.0)])
    assert runtime.node_stats.kills == 1
    result = results[0]
    assert result.extra.get("killed") == 1.0
    assert result.run_time == 0.0


@pytest.mark.parametrize("scheme", ["NoPrefetch", "FFA"])
def test_destination_crash_abort_under_other_schemes(scheme):
    runtime, results = run_with_crashes("pair", scheme, [("dest", 0.02, 0.08)])
    stats = runtime.node_stats
    assert stats.migration_aborts >= 1
    assert stats.kills == 0
    assert results[0].extra.get("killed") is None


# ----------------------------------------------------------------------
# zero-fault identity
# ----------------------------------------------------------------------


def _plain_run(preset="pair", scheme="AMPoM", config_extra=None):
    spec = build_preset(preset, scheme, scale=SCALE, seed=0)
    if config_extra:
        spec.config = spec.config.with_(**config_extra)
    return [r.to_dict() for r in ScenarioRuntime(spec).execute()]


def test_inactive_node_fault_spec_is_identity():
    # An armed-but-empty NodeFaultSpec must not perturb the simulation:
    # the run serializes identically to a plain run.
    baseline = _plain_run()
    with_spec = _plain_run(config_extra={"node_faults": NodeFaultSpec()})
    assert with_spec == baseline


def test_schedule_with_no_drawn_windows_is_identity():
    # A seeded spec whose horizon admits no crash draws an empty plan;
    # the runtime must then behave exactly like the fault-free run.
    baseline = _plain_run()
    quiet = _plain_run(
        config_extra={
            "node_faults": NodeFaultSpec(
                crash_rate_hz=1e-6, mean_downtime_s=0.1, horizon_s=1e-9
            )
        }
    )
    assert quiet == baseline


def test_legacy_deputy_crash_windows_still_work():
    # The survivable deputy-pause path predates whole-node crashes and
    # must keep working unchanged alongside them.
    spec = build_preset("pair", "AMPoM", scale=SCALE, seed=0)
    spec.config = spec.config.with_(
        faults=FaultSpec(deputy_crash_windows=((0.05, 0.1),)),
        checks=CheckSpec(enabled=True),
    )
    results = ScenarioRuntime(spec).execute()
    assert results[0].extra.get("killed") is None
    assert results[0].run_time > 0.0


# ----------------------------------------------------------------------
# failure detectors
# ----------------------------------------------------------------------


def test_infod_probe_timeout_escalates_to_suspicion():
    sim = Simulator()
    config = SimulationConfig()
    cluster = Cluster(sim, config, node_names=["home", "dest"])
    plan = NodeFaultPlan(
        NodeFaultSpec(crash_windows=(("home", 1.5, 3.2),)),
        seed=0,
        nodes=("home", "dest"),
    )
    stats = NodeFaultStats()
    infod = InfoDaemon(
        sim,
        cluster.node("dest"),
        to_home=cluster.network.direction("dest", "home"),
        from_home=cluster.network.direction("home", "dest"),
        config=config.infod,
        node_plan=plan,
        home="home",
        suspect_after=2,
        stats=stats,
    )
    # Probes fire every probe_interval (1.0 s): t=2 and t=3 both miss
    # while home is dark, so the second miss escalates to a suspicion.
    sim.run(until=3.5)
    assert infod.probes_missed == 2
    assert infod.suspected
    assert stats.suspicions == 1
    assert stats.detections == 1
    # Latency runs from the crash instant (1.5) to the suspicion (3.0).
    assert stats.detection_latency_total_s == pytest.approx(1.5)
    # The home restarts at 3.2; the next good probe clears the suspicion.
    sim.run(until=4.5)
    assert not infod.suspected
    assert stats.unsuspicions == 1


def test_gossip_staleness_detects_dead_node():
    sim = Simulator()
    config = SimulationConfig()
    names = ["n0", "n1", "n2"]
    cluster = Cluster(sim, config, node_names=names)
    plan = NodeFaultPlan(
        NodeFaultSpec(crash_windows=(("n2", 2.0, 8.0),)),
        seed=0,
        nodes=tuple(names),
    )
    stats = NodeFaultStats()
    gossip = GossipLoadMap(
        sim,
        cluster,
        load_of=lambda n: 1.0,
        interval=0.5,
        seed=0,
        node_plan=plan,
        suspect_staleness_s=1.5,
        stats=stats,
    )
    sim.run(until=6.0)
    # n2 gossiped nothing since t=2.0, so its entries went stale and the
    # survivors suspect it.
    assert "n2" in gossip.suspects("n0")
    assert "n2" in gossip.suspects("n1")
    assert stats.suspicions >= 1
    assert stats.detections >= 1
    # After the restart n2 gossips again and the suspicion clears.
    sim.run(until=12.0)
    assert "n2" not in gossip.suspects("n0")
    assert stats.unsuspicions >= 1


# ----------------------------------------------------------------------
# failure-aware scheduling
# ----------------------------------------------------------------------


def test_scheduler_driver_installs_retarget_under_node_faults():
    from repro.cluster.scheduler import SchedulerDriver

    spec = build_preset("pair", "AMPoM", scale=SCALE, seed=0)
    spec.config = spec.config.with_(
        node_faults=NodeFaultSpec(crash_windows=(("dest", 0.02, 0.08),))
    )
    runtime = ScenarioRuntime(spec)
    assert runtime.node_plan is not None
    driver = SchedulerDriver.__new__(SchedulerDriver)
    driver.graph = spec.graph
    driver._install_retarget(runtime)
    assert runtime.retarget is not None
    # A retarget query at a time the only alternative is down yields None.
    taken = [n for n in spec.graph.nodes if n != FILE_SERVER]
    assert runtime.retarget(taken, taken[-1], 0.05) is None


def test_cluster_scheduler_skips_down_nodes():
    from repro.cluster.scheduler import ClusterScheduler

    sim = Simulator()
    config = SimulationConfig()
    names = ["n0", "n1", "n2"]
    cluster = Cluster(sim, config, node_names=names)
    plan = NodeFaultPlan(
        NodeFaultSpec(crash_windows=(("n2", 0.0, 10.0),)),
        seed=0,
        nodes=tuple(names),
    )
    scheduler = ClusterScheduler(sim, cluster, tasks=[], config=config, node_plan=plan)
    assert scheduler._alive(names) == ["n0", "n1"]
    sim.run(until=11.0)
    assert scheduler._alive(names) == names


# ----------------------------------------------------------------------
# spec plumbing
# ----------------------------------------------------------------------


def _scenario_dict(node_faults=None):
    d = {
        "nodes": ["home", "n1"],
        "seed": 0,
        "migrants": [
            {
                "kernel": "DGEMM",
                "memory_mb": 115,
                "scale": SCALE,
                "scheme": "AMPoM",
                "path": ["home", "n1"],
            }
        ],
    }
    if node_faults is not None:
        d["node_faults"] = node_faults
    return d


def test_scenario_from_dict_parses_node_faults():
    spec = scenario_from_dict(
        _scenario_dict({"crash_windows": [["n1", 0.5, 0.9]], "suspect_staleness_s": 2.0})
    )
    nf = spec.config.node_faults
    assert nf.crash_windows == (("n1", 0.5, 0.9),)
    assert nf.suspect_staleness_s == 2.0
    assert nf.active


def test_scenario_spec_rejects_unknown_crash_node():
    with pytest.raises(ConfigurationError, match="unknown node"):
        scenario_from_dict(_scenario_dict({"crash_windows": [["ghost", 0.5, 0.9]]}))


def test_scenario_spec_rejects_file_server_crash():
    spec = build_preset("pair", "FFA", scale=SCALE, seed=0)
    with pytest.raises(ConfigurationError, match="file server"):
        type(spec)(
            graph=spec.graph,
            migrants=spec.migrants,
            config=spec.config.with_(
                node_faults=NodeFaultSpec(crash_windows=((FILE_SERVER, 0.1, 0.2),))
            ),
        )


# ----------------------------------------------------------------------
# chaos harness
# ----------------------------------------------------------------------


def test_chaos_cell_is_deterministic():
    a, va = chaos_cell("pair", "AMPoM", seed=1)
    b, vb = chaos_cell("pair", "AMPoM", seed=1)
    assert va is None and vb is None
    assert a == b


def test_chaos_mini_sweep_holds_invariants():
    report = run_chaos(presets=("pair",), schemes=("AMPoM", "openMosix"), seeds=(1,))
    assert report.ok
    assert len(report.runs) == 2
    assert not report.violations
    counts = report.counts()
    assert sum(counts.values()) == 2


def test_chaos_skips_unsupported_pairs_before_running():
    report = run_chaos(
        presets=("pair", "three-hop-lossy"), schemes=("FFA",), seeds=(0,),
        crash_rate_hz=0.5,
    )
    assert report.ok
    assert [(r.preset, r.scheme) for r in report.runs] == [("pair", "FFA")]
    assert report.unsupported == [
        {
            "preset": "three-hop-lossy",
            "scheme": "FFA",
            "reason": report.unsupported[0]["reason"],
        }
    ]
    assert "deputy-backed" in report.unsupported[0]["reason"]
    text = report.to_text()
    assert "1 unsupported preset/scheme pairs" in text.splitlines()[0]
    assert "three-hop-lossy FFA        unsupported" in text


def test_chaos_default_sweep_has_no_unsupported_pairs():
    from repro.cluster.chaos import DEFAULT_PRESETS, DEFAULT_SCHEMES, unsupported_pairs

    assert unsupported_pairs(DEFAULT_PRESETS, DEFAULT_SCHEMES) == []
    assert "unsupported" not in ChaosReport().to_text()
