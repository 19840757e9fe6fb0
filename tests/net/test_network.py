"""Unit tests for the network registry and DES-integrated delivery."""

from __future__ import annotations

import pytest

from repro.config import NetworkSpec
from repro.errors import NetworkError
from repro.net.message import Message, MessageKind
from repro.net.network import Network


def make_net(sim):
    net = Network(sim)
    net.connect(
        "home",
        "dest",
        NetworkSpec(bandwidth_bps=1e6, latency_s=0.01, per_message_overhead_bytes=0),
    )
    return net


def test_connect_registers_nodes(sim):
    net = make_net(sim)
    assert net.nodes == frozenset({"home", "dest"})


def test_duplicate_link_rejected(sim):
    net = make_net(sim)
    with pytest.raises(NetworkError):
        net.connect("dest", "home", NetworkSpec())


def test_missing_link_raises(sim):
    net = make_net(sim)
    with pytest.raises(NetworkError):
        net.direction("home", "elsewhere")


def test_transfer_returns_arrival_time(sim):
    net = make_net(sim)
    assert net.transfer("home", "dest", 1000) == pytest.approx(0.011)


def test_send_schedules_delivery_callback(sim):
    net = make_net(sim)
    seen = []
    msg = Message(MessageKind.PAGE_REPLY, src="home", dst="dest", payload_bytes=1000)
    net.send(msg, lambda m, t: seen.append((m.kind, t)))
    sim.run()
    assert seen == [(MessageKind.PAGE_REPLY, pytest.approx(0.011))]
    assert sim.now == pytest.approx(0.011)


def test_round_trip_time_unloaded(sim):
    net = make_net(sim)
    rtt = net.round_trip_time("home", "dest")
    assert rtt == pytest.approx(0.02, rel=1e-6)


def test_round_trip_time_does_not_occupy_link(sim):
    net = make_net(sim)
    net.round_trip_time("home", "dest", payload_bytes=10**6)
    assert net.direction("home", "dest").queuing_delay(0.0) == 0.0


def test_message_negative_payload_rejected():
    with pytest.raises(ValueError):
        Message(MessageKind.SYSCALL, "a", "b", payload_bytes=-5)


def test_add_node(sim):
    net = Network(sim)
    net.add_node("solo")
    assert "solo" in net.nodes


# ----------------------------------------------------------------------
# full mesh, each link built on first use
# ----------------------------------------------------------------------
SLOW = NetworkSpec(bandwidth_bps=1e5, latency_s=0.05)


def make_mesh(sim, n=5, overrides=None):
    net = Network(sim)
    net.mesh([f"n{i}" for i in range(n)], NetworkSpec(), overrides)
    return net


def test_mesh_builds_no_links_up_front(sim):
    net = make_mesh(sim, n=50)
    assert net._links == {}
    assert net.nodes == frozenset(f"n{i}" for i in range(50))


def test_mesh_builds_exactly_the_touched_pairs(sim):
    net = make_mesh(sim)
    net.transfer("n0", "n1", 100)
    net.direction("n3", "n2")
    net.link_between("n1", "n0")  # the same pair, reversed: no new link
    net.round_trip_time("n4", "n0")
    assert set(net._links) == {("n0", "n1"), ("n2", "n3"), ("n0", "n4")}


def test_mesh_link_keeps_node_order_whichever_end_asks_first(sim):
    net = make_mesh(sim)
    link = net.link_between("n3", "n1")
    assert (link.a, link.b) == ("n1", "n3")
    assert net.direction("n3", "n1").name == "n3->n1"


@pytest.mark.parametrize("key", [("n1", "n2"), ("n2", "n1")])
@pytest.mark.parametrize("touch", [("n1", "n2"), ("n2", "n1")])
def test_mesh_override_resolves_at_first_touch_in_either_order(sim, key, touch):
    net = make_mesh(sim, overrides={key: SLOW})
    assert net._links == {}
    assert net.link_between(*touch).spec == SLOW
    assert net.link_between("n0", "n1").spec == NetworkSpec()


def test_mesh_unknown_node_raises(sim):
    net = make_mesh(sim)
    with pytest.raises(NetworkError):
        net.direction("n0", "elsewhere")
    with pytest.raises(NetworkError):
        net.link_between("n2", "n2")
    assert net._links == {}


def test_mesh_duplicate_explicit_connect_still_raises(sim):
    net = make_mesh(sim)
    net.connect("n0", "n1", NetworkSpec())
    assert net.link_between("n1", "n0") is net.link_between("n0", "n1")
    net.direction("n2", "n3")
    for a, b in (("n1", "n0"), ("n3", "n2")):
        with pytest.raises(NetworkError):
            net.connect(a, b, NetworkSpec())


def test_thousand_node_cluster_builds_no_links(sim):
    from repro.cluster.cluster import Cluster
    from repro.config import SimulationConfig

    cluster = Cluster(sim, SimulationConfig(), [f"n{i}" for i in range(1000)])
    assert len(cluster.network._links) == 0
    cluster.network.transfer("n0", "n999", 64)
    assert len(cluster.network._links) == 1
