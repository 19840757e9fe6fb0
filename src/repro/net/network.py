"""Network registry: nodes, links, and DES-integrated message delivery."""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from ..config import NetworkSpec
from ..errors import NetworkError
from ..sim import Simulator
from .link import Direction, Link
from .message import Message


class Network:
    """A set of named nodes connected by point-to-point links.

    The experiments of the paper only need the origin<->destination pair
    (plus a file server for the FFA baseline), but the registry supports an
    arbitrary topology for the cluster/scheduler layer.

    Links are either connected explicitly (:meth:`connect`) or declared
    as a full mesh (:meth:`mesh`), each link built on first use: a
    300-node cluster whose traffic touches a few thousand of its 44,850
    pairs never builds the rest.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._nodes: set[str] = set()
        self._links: dict[tuple[str, str], Link] = {}
        #: Meshed node -> its position in the mesh's node order; a lazily
        #: built link takes its endpoint order from it.
        self._mesh_rank: dict[str, int] = {}
        self._mesh_spec: NetworkSpec | None = None
        self._mesh_overrides: Mapping[tuple[str, str], NetworkSpec] = {}

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> None:
        self._nodes.add(name)

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def connect(self, a: str, b: str, spec: NetworkSpec) -> Link:
        """Create a duplex link between ``a`` and ``b``."""
        self._nodes.add(a)
        self._nodes.add(b)
        key = (a, b) if a < b else (b, a)
        if key in self._links:
            raise NetworkError(f"nodes {a!r} and {b!r} are already linked")
        link = Link(a, b, spec)
        self._links[key] = link
        return link

    def mesh(
        self,
        names: Sequence[str],
        spec: NetworkSpec,
        overrides: Mapping[tuple[str, str], NetworkSpec] | None = None,
    ) -> None:
        """Declare a full mesh over ``names``, each link built on first use.

        A pair's link uses ``spec`` unless ``overrides`` names the pair, in
        either endpoint order.  The link's endpoints keep the order of
        ``names``, so a lazily built link is the one an eager loop over
        the pairs would have built.
        """
        self._nodes.update(names)
        self._mesh_rank = {name: i for i, name in enumerate(names)}
        self._mesh_spec = spec
        self._mesh_overrides = dict(overrides) if overrides else {}

    def link_between(self, a: str, b: str) -> Link:
        key = (a, b) if a < b else (b, a)
        try:
            return self._links[key]
        except KeyError:
            pass
        rank = self._mesh_rank
        if a != b and a in rank and b in rank:
            if rank[a] > rank[b]:
                a, b = b, a
            overrides = self._mesh_overrides
            spec = overrides.get((a, b)) or overrides.get((b, a)) or self._mesh_spec
            return self.connect(a, b, spec)
        raise NetworkError(f"no link between {a!r} and {b!r}")

    def direction(self, src: str, dst: str) -> Direction:
        """The one-way channel for ``src`` -> ``dst`` traffic."""
        return self.link_between(src, dst).direction(src, dst)

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def transfer(self, src: str, dst: str, payload_bytes: int) -> float:
        """Submit a payload now; return its simulated arrival time."""
        return self.direction(src, dst).transfer(payload_bytes, self.sim.now)

    def send(self, message: Message, on_delivery: Callable[[Message, float], None]) -> float:
        """Submit ``message`` now and schedule ``on_delivery(message, t)`` at
        its arrival time ``t``.  Returns the arrival time."""
        arrival = self.transfer(message.src, message.dst, message.payload_bytes)
        self.sim.schedule_at(arrival, lambda: on_delivery(message, arrival))
        return arrival

    def round_trip_time(self, a: str, b: str, payload_bytes: int = 0) -> float:
        """Unloaded round-trip estimate (pure latency + serialization of a
        minimal message), without occupying the link."""
        fwd = self.direction(a, b)
        bwd = self.direction(b, a)
        size = payload_bytes + fwd.per_message_overhead_bytes
        return (
            fwd.latency_s
            + bwd.latency_s
            + size / fwd.bandwidth_bps
            + size / bwd.bandwidth_bps
        )
