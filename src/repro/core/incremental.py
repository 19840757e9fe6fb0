"""The lookback window and its incremental AMPoM analysis (the per-fault
hot path).

Paper section 3.1: the lookback window ``W`` records the addresses of the
pages accessed in the last ``l`` page faults; ``T`` holds each entry's
access time and ``C`` the CPU utilization of the process when the entry
was recorded.  When the window is full the oldest entry is discarded.
Consecutive repeated references to the same page are a form of temporal
locality and are counted as a single reference (``r_p != r_{p+1}``), so a
repeat of the newest entry is not recorded.

Stride definitions (sections 3.1 and 3.4):

* The *stride* of a page reference ``r_p`` is the minimum absolute distance
  ``d`` in ``W`` between the references to page ``r_p`` and page
  ``r_p + 1``.  ``stride_d`` is the number of distinct pages in ``W``
  participating in stride-``d`` references: for ``{1,99,2,45,3,78,4}`` the
  stride-2 references are ``{1,99,2}``, ``{2,45,3}``, ``{3,78,4}`` and
  ``stride_2 = 4`` (pages 1, 2, 3, 4).
* The spatial locality score (eq. 1) is
  ``S = sum_{d=1}^{dmax} stride_d / (l * d)``, clamped to ``[0, 1]``, with
  ``l`` the number of references currently in the window.
* An *outstanding* stride-``d`` stream is a **forward** pair whose endpoint
  lies within ``d`` of the window's end (1-based: ``p + d > l - d``); its
  *prefetch pivot* is the page after the stream's endpoint,
  ``r_{p+d} + 1``.  The score uses minimum **absolute** distance, so a
  descending sweep still registers spatial locality; streams are forward
  only, because a pivot extrapolates forward progress.

The paper runs the dependent-zone analysis on *every* page fault, so its
cost is the algorithmic overhead figure 11 measures.  A full-window scan
costs O(l·dmax) per analysis; :class:`IncrementalWindow` maintains the
same quantities as persistent state updated in O(dmax) amortized work per
window push/evict:

* ``_occ`` — the page-position index (page value → ascending absolute
  window positions), updated by appending on push and popping on evict;
* ``_dmin`` — per reference position, the minimum absolute distance to a
  reference of the successor page, *clamped*: distances beyond ``dmax``
  are not stored because they can never contribute to a stride count;
* ``_contrib`` — per stride distance ``d``, a refcount of the page values
  participating in stride-``d`` pairs; ``stride_d`` is the dict's length
  (set semantics over values, maintained by counting).

The O(dmax) bound rests on two locality facts.  On push, only references
in the last ``dmax`` positions can have their clamped ``dmin`` improved by
the new entry (anything farther is beyond ``dmax`` anyway).  On evict,
only references within ``dmax`` of the evicted oldest entry can lose their
recorded minimum (a reference whose minimum was already beyond ``dmax``
only moves farther away).  The outstanding-stream analysis likewise only
ever involves endpoints in the last ``dmax`` positions (``q >= l - d``
forces ``q >= l - dmax``), so it reads the index instead of scanning.

Float discipline: every derived quantity (:meth:`locality_score`,
:meth:`paging_rate`, :meth:`mean_cpu`) performs the *identical sequence of
floating-point operations* as the brute-force references in
:mod:`repro.check.oracle` (``ref_locality_score`` and
``RefWindow``) — same summation order, same clamps — so runs are
bit-identical, which the golden traces and the
:class:`repro.check.DifferentialOracle` both verify.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class OutstandingStream:
    """A stride-``d`` stream still active at the window's end."""

    stride: int
    #: Window position (0-based) of the stream's endpoint ``r_{p+d}``.
    end_index: int
    #: The page to start prefetching from: ``r_{p+d} + 1``.
    pivot: int


class IncrementalWindow:
    """Lookback window ``W``/``T``/``C`` with incremental stride state.

    Besides recording faults and the section-3.3 derived quantities it
    answers :meth:`stride_counts`, :meth:`locality_score` and
    :meth:`outstanding_streams` from incrementally maintained state
    instead of per-call rescans.
    """

    __slots__ = (
        "length",
        "dmax",
        "wraps",
        "_ring",
        "_times",
        "_cpus",
        "_base",
        "_next",
        "_occ",
        "_dmin",
        "_contrib",
        "_pages_cache",
    )

    def __init__(self, length: int, dmax: int) -> None:
        if length < 2:
            raise ConfigurationError(f"window length must be >= 2, got {length}")
        if dmax < 1:
            raise ConfigurationError(f"dmax must be >= 1, got {dmax}")
        self.length = length
        self.dmax = dmax
        #: Number of times the window wrapped (oldest entry evicted); the
        #: infoD daemon re-samples bandwidth once per wrap (section 4).
        self.wraps = 0
        #: Ring buffer of page values; position ``p`` lives at ``p % length``.
        self._ring: list[int] = [0] * length
        self._times: deque[float] = deque()
        self._cpus: deque[float] = deque()
        #: Absolute position of the oldest entry and one past the newest.
        self._base = 0
        self._next = 0
        #: Page value -> ascending absolute positions of its references.
        self._occ: dict[int, list[int]] = {}
        #: Absolute position -> clamped min distance (only when <= dmax).
        self._dmin: dict[int, int] = {}
        #: Stride distance d -> {page value: contribution refcount}.
        self._contrib: list[dict[int, int]] = [{} for _ in range(dmax + 1)]
        self._pages_cache: tuple[int, ...] | None = ()

    # ------------------------------------------------------------------
    # the recording surface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._next - self._base

    @property
    def full(self) -> bool:
        return self._next - self._base == self.length

    @property
    def pages(self) -> tuple[int, ...]:
        """The reference stream ``R = r_1 .. r_l`` (oldest first)."""
        cached = self._pages_cache
        if cached is None:
            ring, length = self._ring, self.length
            cached = tuple(ring[p % length] for p in range(self._base, self._next))
            self._pages_cache = cached
        return cached

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(self._times)

    @property
    def cpus(self) -> tuple[float, ...]:
        return tuple(self._cpus)

    @property
    def last_page(self) -> int | None:
        if self._next == self._base:
            return None
        return self._ring[(self._next - 1) % self.length]

    def record(self, vpn: int, time: float, cpu: float) -> bool:
        """Append a fault to the window.

        Returns ``False`` when the entry was a consecutive repeat of the
        newest page (temporal locality; not recorded).
        """
        base, nxt = self._base, self._next
        ring, length = self._ring, self.length
        if nxt > base and ring[(nxt - 1) % length] == vpn:
            return False
        times = self._times
        if times and time < times[-1]:
            raise ConfigurationError(
                f"fault times must be non-decreasing ({time} < {times[-1]})"
            )
        if nxt - base == length:
            self._evict()
            self.wraps += 1
        self._push(vpn)
        times.append(time)
        self._cpus.append(min(max(cpu, 0.0), 1.0))
        self._pages_cache = None
        return True

    # ------------------------------------------------------------------
    # derived quantities of section 3.3 (identical float ops to the
    # oracle's reference window)
    # ------------------------------------------------------------------
    def paging_rate(self, fallback_interval: float) -> float:
        """``r = l / (T_l - T_1)``, the average paging rate over the window.

        Before the window spans a time interval long enough to give a
        finite rate (a subnormal span overflows ``l / span``) the rate is
        estimated as one fault per ``fallback_interval``.
        """
        times = self._times
        if len(times) >= 2:
            span = times[-1] - times[0]
            if span > 0.0:
                rate = len(times) / span
                if rate < math.inf:
                    return rate
        return 1.0 / fallback_interval

    def mean_cpu(self) -> float:
        """``c = sum(C_i) / l`` — average CPU share over the window.

        Summed oldest-to-newest over the deque — the same operation order
        as the oracle's reference window, so the result is bit-identical.
        """
        cpus = self._cpus
        if not cpus:
            return 1.0
        return sum(cpus) / len(cpus)

    def last_cpu(self) -> float:
        """``c' = C_l`` — the paper's estimate of next-period CPU share."""
        return self._cpus[-1] if self._cpus else 1.0

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def _add_contrib(self, d: int, value: int) -> None:
        bucket = self._contrib[d]
        bucket[value] = bucket.get(value, 0) + 1
        succ = value + 1
        bucket[succ] = bucket.get(succ, 0) + 1

    def _drop_contrib(self, d: int, value: int) -> None:
        bucket = self._contrib[d]
        for v in (value, value + 1):
            left = bucket[v] - 1
            if left:
                bucket[v] = left
            else:
                del bucket[v]

    def _push(self, vpn: int) -> None:
        t = self._next
        self._next = t + 1
        ring, length, dmax = self._ring, self.length, self.dmax
        ring[t % length] = vpn
        occ = self._occ
        slot = occ.get(vpn)
        if slot is None:
            occ[vpn] = [t]
        else:
            slot.append(t)

        # The new reference's own stride: its nearest reference of vpn+1
        # is the latest earlier occurrence (all occurrences precede t).
        succ = occ.get(vpn + 1)
        if succ:
            d = t - succ[-1]
            if d <= dmax:
                self._dmin[t] = d
                self._add_contrib(d, vpn)

        # The new reference may improve the clamped dmin of references to
        # vpn-1 in the last dmax positions (farther ones stay beyond dmax).
        prev_value = vpn - 1
        dmin = self._dmin
        lo = max(t - dmax, self._base)
        for p in range(t - 1, lo - 1, -1):
            if ring[p % length] != prev_value:
                continue
            d = t - p
            old = dmin.get(p)
            if old is None or d < old:
                if old is not None:
                    self._drop_contrib(old, prev_value)
                dmin[p] = d
                self._add_contrib(d, prev_value)

    def _evict(self) -> None:
        p0 = self._base
        self._base = p0 + 1
        ring, length, dmax = self._ring, self.length, self.dmax
        v0 = ring[p0 % length]
        self._times.popleft()
        self._cpus.popleft()

        occ_v0 = self._occ[v0]
        occ_v0.pop(0)  # p0 is always the first (oldest) occurrence
        if not occ_v0:
            del self._occ[v0]

        dmin = self._dmin
        old = dmin.pop(p0, None)
        if old is not None:
            self._drop_contrib(old, v0)

        # References to v0-1 whose recorded minimum ran through p0: they
        # sit within dmax after p0 (a minimum beyond dmax is not recorded,
        # and removal only increases distances).
        prev_value = v0 - 1
        hi = min(p0 + dmax, self._next - 1)
        for p in range(p0 + 1, hi + 1):
            if ring[p % length] != prev_value:
                continue
            cur = dmin.get(p)
            if cur is None or cur != p - p0:
                continue  # p0 was not (an) argmin for this reference
            new = self._nearest_distance(p, v0)
            if new == cur:
                continue  # a surviving occurrence ties the old minimum
            self._drop_contrib(cur, prev_value)
            if new is not None:
                dmin[p] = new
                self._add_contrib(new, prev_value)
            else:
                del dmin[p]

    def _nearest_distance(self, p: int, target_value: int) -> int | None:
        """Clamped min distance from position ``p`` to ``target_value``."""
        positions = self._occ.get(target_value)
        if not positions:
            return None
        i = bisect_left(positions, p)
        best = None
        if i > 0:
            best = p - positions[i - 1]
        if i < len(positions):
            d = positions[i] - p
            if best is None or d < best:
                best = d
        if best is None or best > self.dmax:
            return None
        return best

    # ------------------------------------------------------------------
    # the per-fault analysis queries
    # ------------------------------------------------------------------
    def stride_counts(self) -> dict[int, int]:
        """``stride_d`` for ``d = 1 .. dmax`` from the maintained state."""
        contrib = self._contrib
        return {d: len(contrib[d]) for d in range(1, self.dmax + 1)}

    def locality_score(self) -> float:
        """Eq. 1: ``S = sum_d stride_d / (l * d)``, clamped to [0, 1].

        Accumulated in ascending ``d`` — the same order as the oracle's
        ``sum()`` over the counts dict — for bit-identical results.
        """
        l = self._next - self._base
        if l == 0:
            return 0.0
        contrib = self._contrib
        # Explicit loop: same left-to-right accumulation as ``sum()`` over
        # the reference counts (0.0 + a + b + ...), without the generator.
        score = 0.0
        for d in range(1, self.dmax + 1):
            score += len(contrib[d]) / (l * d)
        return min(max(score, 0.0), 1.0)

    def outstanding_streams(self) -> list[OutstandingStream]:
        """Section 3.4's outstanding stride streams, newest-``dmax`` scan.

        A forward pair ``(p, q)`` with ``pages[q] == pages[p] + 1`` at the
        minimum forward distance ``d = q - p <= dmax`` is outstanding when
        its endpoint is within ``d`` positions of the window end (0-based:
        ``q >= len - d``).  Streams sharing a pivot are reported once (the
        one ending latest), ordered by (end_index, stride) — exactly what
        :func:`repro.check.oracle.ref_outstanding_streams` computes by
        exhaustive scan.
        """
        base, nxt = self._base, self._next
        n = nxt - base
        if n == 0:
            return []
        ring, length, dmax = self._ring, self.length, self.dmax
        occ = self._occ
        occ_get = occ.get
        #: pivot -> (end_index, stride); the dataclasses are built only
        #: for the survivors, after the keep-latest-per-pivot dedup.
        by_pivot: dict[int, tuple[int, int]] = {}
        for q in range(max(base, nxt - dmax), nxt):
            u = ring[q % length]
            starts = occ_get(u - 1)
            if not starts:
                continue
            # q must be the *first* occurrence of u after the start, so
            # the start must lie after the previous occurrence of u.
            occ_u = occ[u]
            if occ_u[-1] == q:  # q is usually the newest occurrence
                prev_u = occ_u[-2] if len(occ_u) > 1 else base - 1
            else:
                i = bisect_left(occ_u, q)
                prev_u = occ_u[i - 1] if i > 0 else base - 1
            q_idx = q - base
            # Valid starts p satisfy: prev_u < p < q, stride d = q - p
            # within dmax, and the outstanding condition q_idx >= n - d,
            # i.e. p <= q - (n - q_idx).  A full scan visits starts in
            # ascending p and only ever *keeps* the first one per endpoint
            # (later starts have strictly smaller strides and the same
            # end_index, which never displaces the kept stream).
            lo = q - dmax
            if prev_u >= lo:
                lo = prev_u + 1
            hi = q - (n - q_idx)
            if hi < lo:
                continue
            j = bisect_left(starts, lo)
            if j >= len(starts) or starts[j] > hi:
                continue
            d = q - starts[j]
            pivot = u + 1
            existing = by_pivot.get(pivot)
            if existing is None or q_idx > existing[0]:
                by_pivot[pivot] = (q_idx, d)
        if not by_pivot:
            return []
        if len(by_pivot) == 1:
            # Single survivor (the sequential-access steady state).
            pivot, (e, d) = next(iter(by_pivot.items()))
            return [OutstandingStream(stride=d, end_index=e, pivot=pivot)]
        # end_index values are distinct (one candidate per endpoint q), so
        # sorting the (end_index, stride, pivot) tuples matches the
        # reference (end_index, stride) key order exactly.
        return [
            OutstandingStream(stride=d, end_index=e, pivot=pivot)
            for e, d, pivot in sorted(
                (e, d, pivot) for pivot, (e, d) in by_pivot.items()
            )
        ]


__all__ = ["IncrementalWindow", "OutstandingStream"]
