"""Pluggable prefetch policies for the remote-paging fault handler.

A policy is consulted on every fault of a migrated process and decides
which remote pages to request ahead of demand.  The three migration
schemes of the paper's evaluation map onto:

* ``openMosix``      — no remote paging at all (no policy runs);
* ``NoPrefetch``     — :class:`NoPrefetchPolicy` (demand paging only);
* ``AMPoM``          — :class:`repro.core.prefetcher.AMPoMPrefetcher`.

:class:`FixedReadAheadPolicy` and :class:`LinuxReadAheadPolicy` are the
baseline policies used by the ablation benchmarks (section 5.3 likens
AMPoM's fallback behaviour to a fixed-size read-ahead);
:class:`repro.core.leap.LeapPrefetcher` is Leap's majority-trend stride
detector (PAPERS.md).

Policies are named: the :data:`POLICIES` registry maps a policy name to
a factory taking a :class:`repro.migration.base.MigrationContext`, and
:func:`make_prefetch_policy` is the one resolution point every
migration strategy goes through.  ``prefetch_policy=`` on a strategy, a
:class:`~repro.cluster.topology.MigrantSpec`, or the
:class:`~repro.config.SimulationConfig` all name entries here, which is
what makes scheme x policy an orthogonal grid (see docs/POLICIES.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from ..errors import ConfigurationError
from ..mem.readahead import LinuxReadAhead

if TYPE_CHECKING:  # pragma: no cover
    from ..mem.residency import ResidencyTracker
    from ..migration.base import MigrationContext


@dataclass(frozen=True, slots=True)
class LinkConditions:
    """Network/CPU conditions sampled by the oM_infoD daemon.

    ``rtt_s`` is the measured round-trip time (``2 * t0`` in eq. 3),
    ``available_bw_bps`` the available-bandwidth estimate used to derive
    ``td``, and ``cpu_share`` the CPU fraction the process can expect next
    (feeds ``c'`` when the process is not alone on the node).
    """

    rtt_s: float
    available_bw_bps: float
    cpu_share: float = 1.0


@runtime_checkable
class PrefetchPolicy(Protocol):
    """Decides which pages to prefetch on each fault."""

    #: Human-readable policy name (used in reports).
    name: str
    #: CPU time charged per consulted fault (figure 11's overhead model).
    analysis_time: float
    #: Whether the policy reads the :class:`LinkConditions` snapshot.  A
    #: policy that ignores it (demand paging) sets this ``False`` so the
    #: executor can skip sampling the oM_infoD daemon on its fault path.
    needs_conditions: bool

    def on_fault(
        self,
        vpn: int,
        now: float,
        cpu_share: float,
        residency: "ResidencyTracker",
        conditions: LinkConditions,
    ) -> list[int]:
        """Return the remote pages to request alongside/after this fault.

        ``cpu_share`` is the fraction of CPU the process consumed since its
        previous fault (the ``C_i`` sample).  The returned pages must be
        neither local nor pending; the executor requests them verbatim.
        """
        ...  # pragma: no cover


class NoPrefetchPolicy:
    """Demand paging only — the paper's "NoPrefetch" FFA variant."""

    name = "noprefetch"
    analysis_time = 0.0
    needs_conditions = False

    def on_fault(
        self,
        vpn: int,
        now: float,
        cpu_share: float,
        residency: "ResidencyTracker",
        conditions: LinkConditions,
    ) -> list[int]:
        return []


class FixedReadAheadPolicy:
    """Always prefetch the next ``k`` pages after the faulting page."""

    analysis_time = 0.0
    needs_conditions = False

    def __init__(self, k: int, address_limit: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.address_limit = address_limit
        self.name = f"readahead-{k}"

    def on_fault(
        self,
        vpn: int,
        now: float,
        cpu_share: float,
        residency: "ResidencyTracker",
        conditions: LinkConditions,
    ) -> list[int]:
        stop = min(vpn + 1 + self.k, self.address_limit)
        remote = residency.remote_set
        return [p for p in range(vpn + 1, stop) if p in remote]


class LinuxReadAheadPolicy:
    """Doubling-window sequential read-ahead (Linux 2.4 buffer cache)."""

    analysis_time = 0.0
    needs_conditions = False

    def __init__(self, address_limit: int, min_pages: int = 4, max_pages: int = 32) -> None:
        self.address_limit = address_limit
        self._window = LinuxReadAhead(min_pages=min_pages, max_pages=max_pages)
        self.name = f"linux-readahead-{min_pages}-{max_pages}"

    def on_fault(
        self,
        vpn: int,
        now: float,
        cpu_share: float,
        residency: "ResidencyTracker",
        conditions: LinkConditions,
    ) -> list[int]:
        k = self._window.on_access(vpn)
        stop = min(vpn + 1 + k, self.address_limit)
        remote = residency.remote_set
        return [p for p in range(vpn + 1, stop) if p in remote]


# ----------------------------------------------------------------------
# the policy registry
# ----------------------------------------------------------------------
#: Pages a bare ``readahead`` policy name requests (``readahead-<k>``
#: names any other fixed depth).
DEFAULT_READAHEAD_PAGES = 8


def _limit(ctx: "MigrationContext") -> int:
    return ctx.address_space.total_pages


def _make_ampom(ctx: "MigrationContext") -> PrefetchPolicy:
    from .prefetcher import AMPoMPrefetcher

    return AMPoMPrefetcher(ctx.ampom, ctx.hardware, address_limit=_limit(ctx))


def _make_leap(ctx: "MigrationContext") -> PrefetchPolicy:
    from .leap import LeapPrefetcher

    return LeapPrefetcher(ctx.hardware, address_limit=_limit(ctx))


#: name -> factory(ctx).  ``ctx`` is the strategy's MigrationContext; a
#: factory may read its ``ampom``/``hardware`` specs and the address
#: space.  Out-of-tree policies register here too.
POLICIES: dict[str, Callable[["MigrationContext"], PrefetchPolicy]] = {
    "noprefetch": lambda ctx: NoPrefetchPolicy(),
    "ampom": _make_ampom,
    "leap": _make_leap,
    "readahead": lambda ctx: FixedReadAheadPolicy(
        k=DEFAULT_READAHEAD_PAGES, address_limit=_limit(ctx)
    ),
    "linux-readahead": lambda ctx: LinuxReadAheadPolicy(address_limit=_limit(ctx)),
}

def available_policies() -> tuple[str, ...]:
    """Registered policy names, sorted (plus ``readahead-<k>`` by pattern)."""
    return tuple(sorted(POLICIES))


def parse_policy_name(name: str) -> tuple[str, Callable[["MigrationContext"], PrefetchPolicy]]:
    """Resolve ``name`` to ``(canonical_name, factory)`` or raise.

    Beyond the literal registry entries, ``readahead-<k>`` names a
    :class:`FixedReadAheadPolicy` of any depth ``k >= 1``.
    """
    factory = POLICIES.get(name)
    if factory is not None:
        return name, factory
    if name.startswith("readahead-"):
        try:
            k = int(name.removeprefix("readahead-"))
        except ValueError:
            k = 0
        if k >= 1:
            return name, lambda ctx: FixedReadAheadPolicy(
                k=k, address_limit=_limit(ctx)
            )
    known = ", ".join(available_policies())
    raise ConfigurationError(
        f"unknown prefetch policy {name!r}; known policies: {known} "
        "(or readahead-<k>)"
    )


def make_prefetch_policy(name: str, ctx: "MigrationContext") -> PrefetchPolicy:
    """Build the named prefetch policy for one migration."""
    return parse_policy_name(name)[1](ctx)
