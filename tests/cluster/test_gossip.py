"""Tests for gossip-based load dissemination and decentralized balancing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.gossip import GossipLoadMap
from repro.cluster.scheduler import ClusterScheduler, Task
from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.sim import Simulator
from repro.sim.rng import child_rng
from repro.units import mib


def make_map(n_nodes=4, interval=0.5, seed=0, loads=None):
    sim = Simulator()
    config = SimulationConfig()
    names = [f"n{i}" for i in range(n_nodes)]
    cluster = Cluster(sim, config, node_names=names)
    loads = loads or {name: i for i, name in enumerate(names)}
    gossip = GossipLoadMap(
        sim, cluster, load_of=lambda n: loads[n], interval=interval, seed=seed
    )
    return sim, cluster, gossip, loads


class TestDissemination:
    def test_views_start_empty(self):
        _, _, gossip, _ = make_map()
        assert all(not v for v in gossip.views.values())

    def test_loads_spread_over_time(self):
        sim, _, gossip, loads = make_map(interval=0.5)
        sim.run(until=30.0)
        # After many rounds every node knows (a recent value of) every other.
        for node in gossip.views:
            view = gossip.view(node)
            others = set(loads) - {node}
            assert set(view) == others
            for other, believed in view.items():
                assert believed == loads[other]

    def test_staleness_is_bounded_by_gossip_age(self):
        sim, _, gossip, _ = make_map(interval=0.5)
        sim.run(until=30.0)
        for node in gossip.views:
            for other in gossip.view(node):
                age = gossip.staleness(node, other)
                assert age is not None and age < 30.0
        assert gossip.staleness("n0", "n0") is None  # no self entry

    def test_updates_are_real_network_messages(self):
        sim, cluster, gossip, _ = make_map(interval=0.5)
        sim.run(until=10.0)
        assert gossip.updates_sent >= 4 * 18  # 4 nodes, ~19 rounds each
        sent_bytes = sum(
            cluster.network.direction(a, b).total_bytes
            for a in cluster.nodes
            for b in cluster.nodes
            if a != b
        )
        assert sent_bytes > 0

    def test_deterministic_per_seed(self):
        def run(seed):
            sim, _, gossip, _ = make_map(seed=seed)
            sim.run(until=10.0)
            # Staleness snapshots capture *when* gossip happened, which is
            # seed-dependent even after the believed loads converge.
            return {
                (n, o): gossip.staleness(n, o)
                for n in gossip.views
                for o in gossip.view(n)
            }

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_newer_samples_win(self):
        sim, cluster, gossip, loads = make_map(interval=0.25)
        sim.run(until=10.0)
        loads["n0"] = 99  # n0's load changes
        sim.run(until=25.0)
        for node in set(loads) - {"n0"}:
            assert gossip.view(node)["n0"] == 99

    def test_stop_halts_daemons(self):
        sim, _, gossip, _ = make_map()
        sim.run(until=2.0)
        gossip.stop()
        count = gossip.updates_sent
        sim.run(until=10.0)
        assert gossip.updates_sent == count

    def test_validation(self):
        sim = Simulator()
        cluster = Cluster(sim, SimulationConfig(), node_names=["a", "b"])
        with pytest.raises(ConfigurationError):
            GossipLoadMap(sim, cluster, load_of=lambda n: 0, interval=0)
        with pytest.raises(ConfigurationError):
            GossipLoadMap(sim, cluster, load_of=lambda n: 0, fanout_entries=0)


class TestGossipBalancing:
    def run_scheduler(self, gossip_enabled: bool, n_tasks=8, seed=0):
        sim = Simulator()
        config = SimulationConfig()
        names = ["n1", "n2", "n3", "n4"]
        cluster = Cluster(sim, config, node_names=names)
        tasks = [
            Task(name=f"t{i}", cpu_seconds=3.0, memory_bytes=mib(64), node="n1")
            for i in range(n_tasks)
        ]
        sched = ClusterScheduler(
            sim,
            cluster,
            tasks,
            config,
            freeze_model="ampom",
            balance_interval=0.5,
        )
        if gossip_enabled:
            sched.gossip = GossipLoadMap(
                sim, cluster, load_of=lambda n: sched._loads()[n], interval=0.5, seed=seed
            )
        report = sched.run()
        if sched.gossip is not None:
            sched.gossip.stop()
        return sched, report

    def test_gossip_balancer_spreads_load(self):
        sched, report = self.run_scheduler(gossip_enabled=True)
        assert report.migrations > 0
        assert {t.node for t in sched.tasks} != {"n1"}

    def test_gossip_close_to_omniscient(self):
        """Partial stale views cost something, but the decentralized
        balancer lands within 2x of the omniscient one."""
        _, decentralized = self.run_scheduler(gossip_enabled=True)
        _, omniscient = self.run_scheduler(gossip_enabled=False)
        assert decentralized.makespan < omniscient.makespan * 2.0

    def test_gossip_beats_no_balancing(self):
        _, with_gossip = self.run_scheduler(gossip_enabled=True)
        sim = Simulator()
        config = SimulationConfig()
        cluster = Cluster(sim, config, node_names=["n1", "n2", "n3", "n4"])
        tasks = [
            Task(name=f"t{i}", cpu_seconds=3.0, memory_bytes=mib(64), node="n1")
            for i in range(8)
        ]
        sched = ClusterScheduler(
            sim, cluster, tasks, config, load_gap_threshold=10**9
        )
        unbalanced = sched.run()
        assert with_gossip.makespan < unbalanced.makespan


class TestTargetDraw:
    @staticmethod
    def legacy_target(rng, names, sender):
        """The original draw: rebuild the peer list, index into it."""
        peers = [n for n in names if n != sender]
        return peers[int(rng.integers(0, len(peers)))]

    @pytest.mark.parametrize("n_nodes", [2, 3, 7, 32, 300])
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_index_draw_matches_list_draw(self, n_nodes, seed):
        sim, _, gossip, _ = make_map(n_nodes=n_nodes, seed=seed)
        legacy_rng = child_rng(seed, "gossip")
        names = sorted(gossip.views)
        senders = np.random.default_rng(seed).integers(0, n_nodes, size=400)
        for i in senders:
            sender = names[int(i)]
            expected = self.legacy_target(legacy_rng, names, sender)
            assert gossip._pick_target(sender) == expected

    def test_view_is_live_and_read_only(self):
        sim, _, gossip, _ = make_map(interval=0.5)
        view = gossip.view("n0")
        assert len(view) == 0
        sim.run(until=30.0)
        assert dict(view) == {"n1": 1, "n2": 2, "n3": 3}
        assert list(view) == list(gossip.views["n0"])
        with pytest.raises(TypeError):
            view["n1"] = 5  # type: ignore[index]
