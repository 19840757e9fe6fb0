"""Brute-force reference implementations of the AMPoM equations.

These are stateless, exhaustive transcriptions of the paper text.  Their
independence from the production implementations in :mod:`repro.core` is
that they share no code and no state with them (and therefore no bugs):
nothing here is imported from :mod:`repro.core`, nothing is carried from
one window to the next, and every scan re-reads the whole window.  Being
slow is not part of that independence.  The scans look up the
occurrences of page ``r_p + 1`` in a value -> positions dict built from
the window alone (:func:`positions_of`), so one scan is O(l) lookups
plus the occurrences found rather than O(l²) comparisons; every
occurrence is still considered, in both directions for ``S``, with no
clamping and no early exit.  :class:`DifferentialOracle` cross-checks
the two on every dependent-zone analysis when ``CheckSpec.oracle`` is
enabled, building that dict and the reference streams once per analysis,
and raises :class:`repro.errors.InvariantViolation` on any disagreement.

Reference semantics (paper sections 3.1-3.4):

* the lookback window (:class:`RefWindow`): the last ``l`` faults with
  their times ``T`` and CPU shares ``C``; a consecutive repeat of the
  newest page is not recorded, and ``r = l / (T_l - T_1)``,
  ``c = sum(C_i) / l``, ``c' = C_l``;
* eq. 1: ``S = sum_{d=1}^{dmax} stride_d / (l * d)``, clamped to [0, 1],
  where ``stride_d`` counts the distinct pages participating in stride-d
  pairs, a pair's stride being the minimum absolute window distance
  between a reference ``r_p`` and any reference to page ``r_p + 1``;
* eq. 2/3: ``N = (c'/c) * S * r * t`` with ``t = 2*t0 + td + 1/r``,
  clamped to ``[min_pages, max_pages]``;
* section 3.4: each outstanding stream's pivot receives ``N/m``
  consecutive pages, walking forward past already-selected pages without
  spending quota ("saved quota"); with no outstanding stream the ``N``
  pages after the last reference are taken (Linux read-ahead imitation).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Mapping, Sequence

from ..errors import ConfigurationError, InvariantViolation

#: value -> ascending window positions at which the value occurs.
Positions = Mapping[int, Sequence[int]]


class RefWindow:
    """The lookback window ``W``/``T``/``C`` as three bounded deques.

    The reference for :class:`repro.core.incremental.IncrementalWindow`'s
    recording surface; its float quantities use the same operation order,
    so the two agree exactly, not approximately.
    """

    def __init__(self, length: int) -> None:
        if length < 2:
            raise ConfigurationError(f"window length must be >= 2, got {length}")
        self.length = length
        self.pages: deque[int] = deque(maxlen=length)
        self.times: deque[float] = deque(maxlen=length)
        self.cpus: deque[float] = deque(maxlen=length)
        #: Times the oldest entry was evicted.
        self.wraps = 0

    def record(self, vpn: int, time: float, cpu: float) -> bool:
        """Append a fault; ``False`` for a consecutive repeat (not recorded)."""
        if self.pages and self.pages[-1] == vpn:
            return False
        if self.times and time < self.times[-1]:
            raise ConfigurationError(
                f"fault times must be non-decreasing ({time} < {self.times[-1]})"
            )
        if len(self.pages) == self.length:
            self.wraps += 1
        self.pages.append(vpn)
        self.times.append(time)
        self.cpus.append(min(max(cpu, 0.0), 1.0))
        return True

    def paging_rate(self, fallback_interval: float) -> float:
        """``r = l / (T_l - T_1)``; one fault per ``fallback_interval``
        until the span gives a finite rate."""
        if len(self.times) >= 2:
            span = self.times[-1] - self.times[0]
            if span > 0.0:
                rate = len(self.times) / span
                if rate < math.inf:
                    return rate
        return 1.0 / fallback_interval

    def mean_cpu(self) -> float:
        """``c = sum(C_i) / l`` (1.0 for an empty window)."""
        if not self.cpus:
            return 1.0
        return sum(self.cpus) / len(self.cpus)

    def last_cpu(self) -> float:
        """``c' = C_l`` (1.0 for an empty window)."""
        return self.cpus[-1] if self.cpus else 1.0


def positions_of(pages: Sequence[int]) -> dict[int, list[int]]:
    """Every position of every page in ``pages``, keyed by page number."""
    index: dict[int, list[int]] = {}
    for q, page in enumerate(pages):
        index.setdefault(page, []).append(q)
    return index


def ref_stride_counts(
    pages: Sequence[int], dmax: int, index: Positions | None = None
) -> dict[int, int]:
    """``stride_d`` for ``d = 1..dmax``: for every reference, the minimum
    distance to any reference to the next page, in either direction.

    ``index`` is :func:`positions_of` ``pages`` (built here when omitted).
    """
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    if index is None:
        index = positions_of(pages)
    participants: dict[int, set[int]] = {d: set() for d in range(1, dmax + 1)}
    for p, page in enumerate(pages):
        successors = index.get(page + 1)
        if not successors:
            continue
        d = min([abs(q - p) for q in successors])
        if 1 <= d <= dmax:
            participants[d].add(page)
            participants[d].add(page + 1)
    return {d: len(s) for d, s in participants.items()}


def ref_locality_score(
    pages: Sequence[int], dmax: int, index: Positions | None = None
) -> float:
    """Eq. 1, computed from :func:`ref_stride_counts`."""
    length = len(pages)
    if length == 0:
        return 0.0
    counts = ref_stride_counts(pages, dmax, index)
    score = sum(count / (length * d) for d, count in counts.items())
    return min(max(score, 0.0), 1.0)


def ref_outstanding_streams(
    pages: Sequence[int], dmax: int, index: Positions | None = None
) -> list[tuple[int, int, int]]:
    """Outstanding streams as ``(stride, end_index, pivot)`` triples.

    A forward pair ``(p, q)`` with ``pages[q] == pages[p] + 1`` at the
    minimum forward distance ``d = q - p <= dmax`` is outstanding when the
    endpoint lies within ``d`` of the window end (``q >= l - d``).
    Streams sharing a pivot collapse to the one ending latest; output is
    ordered by (end_index, stride).  ``index`` is as for
    :func:`ref_stride_counts`.
    """
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    if index is None:
        index = positions_of(pages)
    n = len(pages)
    by_pivot: dict[int, tuple[int, int, int]] = {}
    for p, page in enumerate(pages):
        forward = [q for q in index.get(page + 1, ()) if q > p]
        if not forward:
            continue
        q = min(forward)
        d = q - p
        if d > dmax or q < n - d:
            continue
        pivot = pages[q] + 1
        kept = by_pivot.get(pivot)
        if kept is None or q > kept[1]:
            by_pivot[pivot] = (d, q, pivot)
    return sorted(by_pivot.values(), key=lambda s: (s[1], s[0]))


def ref_zone_size(
    score: float,
    paging_rate: float,
    horizon: float,
    cpu_ratio: float,
    max_pages: int,
    min_pages: int,
) -> int:
    """Eq. 2/3: ``N = (c'/c) * S * r * t`` clamped to the configured band."""
    n = cpu_ratio * score * paging_rate * horizon
    return max(min_pages, min(int(n), max_pages))


def ref_select_dependent_pages(
    window_pages: Sequence[int],
    n: int,
    dmax: int,
    address_limit: int,
) -> list[int]:
    """Section 3.4 page selection, replayed naively."""
    if n <= 0 or not window_pages:
        return []
    streams = ref_outstanding_streams(window_pages, dmax)
    return _select(window_pages, n, streams, address_limit)


def _select(
    window_pages: Sequence[int],
    n: int,
    streams: Sequence[tuple[int, int, int]],
    address_limit: int,
) -> list[int]:
    """Section 3.4 selection from the reference ``streams`` of
    ``window_pages``."""
    if n <= 0 or not window_pages:
        return []
    if not streams:
        last = window_pages[-1]
        return list(range(last + 1, min(last + 1 + n, address_limit)))
    m = len(streams)
    selected: list[int] = []
    taken: set[int] = set()
    for i, (_, _, pivot) in enumerate(streams):
        quota = n // m + (1 if i < n % m else 0)
        vpn = pivot
        while quota > 0 and vpn < address_limit:
            if vpn not in taken:
                taken.add(vpn)
                selected.append(vpn)
                quota -= 1
            vpn += 1
    return selected


class DifferentialOracle:
    """Cross-checks one analysis step of :mod:`repro.core` per call."""

    def __init__(self) -> None:
        #: Analyses verified so far (diagnostics / test assertions).
        self.verified = 0

    # ------------------------------------------------------------------
    def verify_analysis(
        self,
        *,
        pages: Sequence[int],
        dmax: int,
        score: float,
        paging_rate: float,
        horizon: float,
        rtt_s: float,
        page_transfer_time: float,
        cpu_ratio: float,
        zone_size: int,
        max_pages: int,
        min_pages: int,
        streams: Sequence[object],
        dependent: Sequence[int],
        address_limit: int,
    ) -> None:
        """Verify one dependent-zone analysis against the references.

        ``streams`` are the production
        :class:`repro.core.incremental.OutstandingStream` objects and
        ``dependent`` the production page selection (before residency
        filtering, which is the executor's concern, not the equations').
        """
        index = positions_of(pages)
        ref_score = ref_locality_score(pages, dmax, index)
        if ref_score != score:
            self._mismatch(
                "eq1-score",
                f"S={score!r} but the reference computes {ref_score!r} "
                f"for window {list(pages)} (dmax={dmax})",
            )

        paging_interval = 1.0 / paging_rate
        ref_horizon = rtt_s + page_transfer_time + paging_interval
        if ref_horizon != horizon:
            self._mismatch(
                "eq3-horizon",
                f"t={horizon!r} but 2*t0 + td + 1/r = {ref_horizon!r} "
                f"(rtt={rtt_s!r}, td={page_transfer_time!r}, 1/r={paging_interval!r})",
            )

        ref_n = ref_zone_size(score, paging_rate, horizon, cpu_ratio, max_pages, min_pages)
        if ref_n != zone_size:
            self._mismatch(
                "eq2-zone-size",
                f"N={zone_size} but (c'/c)*S*r*t clamped to "
                f"[{min_pages}, {max_pages}] gives {ref_n} "
                f"(c'/c={cpu_ratio!r}, S={score!r}, r={paging_rate!r}, t={horizon!r})",
            )

        ref_streams = ref_outstanding_streams(pages, dmax, index)
        got_streams = [(s.stride, s.end_index, s.pivot) for s in streams]
        if got_streams != ref_streams:
            self._mismatch(
                "outstanding-streams",
                f"production found {got_streams} but the reference finds "
                f"{ref_streams} for window {list(pages)}",
            )

        ref_pages = _select(pages, zone_size, ref_streams, address_limit)
        if list(dependent) != ref_pages:
            self._mismatch(
                "dependent-zone-selection",
                f"production selected {list(dependent)} but the reference "
                f"selects {ref_pages} (N={zone_size}, window {list(pages)})",
            )
        self.verified += 1

    # ------------------------------------------------------------------
    def _mismatch(self, which: str, detail: str) -> None:
        raise InvariantViolation(f"oracle:{which}", detail)
