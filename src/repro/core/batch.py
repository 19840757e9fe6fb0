"""Batched multi-migrant AMPoM analysis (vectorized across migrants).

A fleet-scale sustained run keeps dozens to hundreds of migrants faulting
concurrently, each with its own :class:`repro.core.incremental.
IncrementalWindow`.  The per-fault analysis is tiny (l=20, dmax=4) but
pure Python, so at 300-node scale the interpreter constant *is* the cost.
:class:`BatchedWindowEngine` carries the window state of **all** migrants
in shared numpy arrays — one row per migrant — and services push/evict/
analyze as row-wise array operations, so the per-fault interpreter cost is
amortized across however many migrants are serviced per call.

Float discipline (the contract the golden traces and the differential
oracle enforce): every per-migrant result is **bit-identical** to the
scalar :class:`IncrementalWindow` path.  Vectorization happens only
*across* migrants (the row axis), never inside one migrant's reduction:

* integer-derived quantities (``stride_d`` tables, stream endpoints, zone
  page selections) are order-free — any evaluation order that produces the
  same integers is identical by construction;
* float reductions keep the scalar accumulation order per row.  The
  locality score accumulates in ascending ``d`` exactly like the scalar
  loop; the CPU mean uses ``np.cumsum`` along the window axis, whose
  running-prefix semantics reproduce Python's left-to-right ``sum()``;
  **numpy axis sums are never used for float accumulation** (they are
  pairwise, which would change the rounding);
* elementwise expressions (``c'/c``, ``rate = l / span``,
  ``t = rtt + td + 1/r``, ``N = (c'/c)·S·r·t``) evaluate the identical
  IEEE-754 operation sequence per row as the scalar code.

``tests/core/test_batch.py`` drives arbitrary interleaved multi-migrant
fault streams through both implementations and asserts exact ``==`` (not
approximate) equality; the golden matrix gates the wired-in path under
``REPRO_BATCH=1``.
"""

from __future__ import annotations

import numpy as np

from ..config import AMPoMConfig, HardwareSpec
from ..errors import ConfigurationError
from .prefetcher import PrefetchTrace
from .stride import OutstandingStream
from .zone import readahead_fallback, select_from_streams

#: Sentinel for ring slots past a row's population.  Far outside the valid
#: vpn range (see :meth:`BatchedWindowEngine.record_many`), so neither PAD
#: nor PAD+1 can ever equal a real page value or its successor.
_PAD = -(1 << 62)
#: Sentinel sorted *after* every real participant value in the per-``d``
#: distinct count.
_BIG = 1 << 62
#: Exclusive upper bound on recordable vpns, so ``vpn + 1 < _BIG`` always.
MAX_VPN = 1 << 61


class BatchAnalysis:
    """Column-per-quantity result of one :meth:`analyze_many` call.

    Arrays are indexed by position in the ``rows`` argument, not by row id.
    """

    __slots__ = (
        "score",
        "rate",
        "td",
        "horizon",
        "cpu_ratio",
        "zone",
        "n",
        "stride_counts",
        "streams",
    )

    def __init__(self, score, rate, td, horizon, cpu_ratio, zone, n,
                 stride_counts, streams):
        self.score = score
        self.rate = rate
        self.td = td
        self.horizon = horizon
        self.cpu_ratio = cpu_ratio
        self.zone = zone
        #: Clamped dependent-zone size per row (eq. 3 + config bounds).
        self.n = n
        #: ``[k, dmax]`` — ``stride_d`` for ``d = 1..dmax`` per row.
        self.stride_counts = stride_counts
        #: Per-row finalized section-3.4 streams (scalar-identical order).
        self.streams = streams


class BatchedWindowEngine:
    """Window state for many migrants in shared arrays, one row each.

    Storage mirrors :class:`IncrementalWindow`'s ring buffer: absolute
    position ``p`` of row ``r`` lives at column ``p % length``.  Analyses
    are recomputed from the raw window per call (vectorized across rows)
    instead of mirroring the scalar incremental dictionaries — the arrays
    make the rescan O(L·dmax) in *array ops shared by all rows*, which is
    exactly the trade the batch layer wants.
    """

    __slots__ = (
        "length",
        "dmax",
        "_pages",
        "_times",
        "_cpus",
        "_base",
        "_next",
        "_wraps",
        "_rows",
    )

    def __init__(self, length: int, dmax: int, capacity: int = 8) -> None:
        if length < 2:
            raise ConfigurationError(f"window length must be >= 2, got {length}")
        if dmax < 1:
            raise ConfigurationError(f"dmax must be >= 1, got {dmax}")
        self.length = length
        self.dmax = dmax
        cap = max(int(capacity), 1)
        self._pages = np.full((cap, length), _PAD, dtype=np.int64)
        self._times = np.zeros((cap, length), dtype=np.float64)
        self._cpus = np.zeros((cap, length), dtype=np.float64)
        #: Absolute position of the oldest entry / one past the newest.
        self._base = np.zeros(cap, dtype=np.int64)
        self._next = np.zeros(cap, dtype=np.int64)
        self._wraps = np.zeros(cap, dtype=np.int64)
        self._rows = 0

    # ------------------------------------------------------------------
    # row management
    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Number of allocated migrant rows."""
        return self._rows

    def new_row(self) -> int:
        """Allocate one migrant row; returns its id."""
        if self._rows == self._base.shape[0]:
            self._grow()
        row = self._rows
        self._rows = row + 1
        return row

    def _grow(self) -> None:
        cap = self._base.shape[0] * 2
        for name in ("_pages", "_times", "_cpus"):
            old = getattr(self, name)
            fill = _PAD if name == "_pages" else 0
            new = np.full((cap, self.length), fill, dtype=old.dtype)
            new[: old.shape[0]] = old
            setattr(self, name, new)
        for name in ("_base", "_next", "_wraps"):
            old = getattr(self, name)
            new = np.zeros(cap, dtype=np.int64)
            new[: old.shape[0]] = old
            setattr(self, name, new)

    # ------------------------------------------------------------------
    # recording (vectorized push/evict)
    # ------------------------------------------------------------------
    def record_many(self, rows, vpns, times, cpus):
        """Append one fault to each row (rows must be distinct).

        Semantics per row are identical to ``IncrementalWindow.record``:
        a consecutive repeat of the newest page is skipped (``False`` in
        the returned mask), a time decrease on a *recorded* entry raises,
        a full window evicts its oldest entry and bumps ``wraps``, and the
        CPU share is clamped to ``[0, 1]``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        vpns = np.asarray(vpns, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        cpus = np.asarray(cpus, dtype=np.float64)
        if vpns.size and (vpns.min() < 0 or vpns.max() >= MAX_VPN):
            raise ConfigurationError(
                f"batched windows require 0 <= vpn < 2**61, got {vpns.min()}"
                if vpns.min() < 0
                else f"batched windows require 0 <= vpn < 2**61, got {vpns.max()}"
            )
        length = self.length
        base = self._base[rows]
        nxt = self._next[rows]
        has = nxt > base
        newest_col = np.where(has, (nxt - 1) % length, 0)
        newest = self._pages[rows, newest_col]
        recorded = ~(has & (newest == vpns))
        checked = has & recorded
        if checked.any():
            last_t = self._times[rows, newest_col]
            bad = checked & (times < last_t)
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise ConfigurationError(
                    f"fault times must be non-decreasing "
                    f"({times[i]} < {last_t[i]})"
                )
        full = recorded & (nxt - base == length)
        np.add.at(self._base, rows[full], 1)
        np.add.at(self._wraps, rows[full], 1)
        r = rows[recorded]
        col = nxt[recorded] % length
        self._pages[r, col] = vpns[recorded]
        self._times[r, col] = times[recorded]
        self._cpus[r, col] = np.minimum(np.maximum(cpus[recorded], 0.0), 1.0)
        np.add.at(self._next, r, 1)
        return recorded

    # ------------------------------------------------------------------
    # linearized window views
    # ------------------------------------------------------------------
    def _lengths(self, rows):
        return self._next[rows] - self._base[rows]

    def _linear(self, rows, storage, pad):
        """Gather ``storage`` rows oldest-first, padded past each length."""
        length = self.length
        base = self._base[rows][:, None]
        l = self._lengths(rows)
        off = np.arange(length, dtype=np.int64)[None, :]
        cols = (base + off) % length
        out = storage[rows[:, None], cols]
        np.copyto(out, pad, where=off >= l[:, None])
        return out, l

    # ------------------------------------------------------------------
    # stride / locality (integers are order-free; floats keep scalar order)
    # ------------------------------------------------------------------
    def _dmin_grid(self, win):
        """Per position, the clamped min distance to a successor ref.

        ``0`` means "no reference of ``v+1`` within dmax" — the same
        clamping rule as ``IncrementalWindow._dmin`` (distances beyond
        dmax are never stored).  Computed by ≤ 2·dmax shifted equality
        scans in ascending offset order, so the first hit is the minimum.
        """
        k, L = win.shape
        dmin = np.zeros((k, L), dtype=np.int64)
        succ = win + 1
        for o in range(1, min(self.dmax, L - 1) + 1):
            fwd = win[:, o:] == succ[:, :-o]
            sub = dmin[:, : L - o]
            sub[fwd & (sub == 0)] = o
            bwd = win[:, :-o] == succ[:, o:]
            sub = dmin[:, o:]
            sub[bwd & (sub == 0)] = o
        return dmin

    def _stride_count_grid(self, win, dmin):
        """``[k, dmax]`` distinct participant counts, d = 1..dmax.

        A reference at clamped distance ``d`` contributes both its value
        and the successor value; the count is over the distinct union —
        computed with a per-``d`` row sort + transition count (pure
        integer work, so evaluation order cannot perturb results).
        """
        k, L = win.shape
        counts = np.empty((k, self.dmax), dtype=np.int64)
        succ = win + 1
        for d in range(1, self.dmax + 1):
            sel = dmin == d
            vals = np.concatenate(
                (np.where(sel, win, _BIG), np.where(sel, succ, _BIG)), axis=1
            )
            vals.sort(axis=1)
            real = vals < _BIG
            distinct = real[:, 0].astype(np.int64)
            distinct += ((vals[:, 1:] != vals[:, :-1]) & real[:, 1:]).sum(axis=1)
            counts[:, d - 1] = distinct
        return counts

    def _locality(self, counts, l):
        """Eq. 1 per row: ascending-``d`` accumulation, scalar clamps."""
        l_safe = np.where(l > 0, l, 1)
        score = np.zeros(l.shape[0], dtype=np.float64)
        for d in range(1, self.dmax + 1):
            score = score + counts[:, d - 1] / (l_safe * d)
        score = np.minimum(np.maximum(score, 0.0), 1.0)
        return np.where(l > 0, score, 0.0)

    # ------------------------------------------------------------------
    # outstanding streams (section 3.4)
    # ------------------------------------------------------------------
    def _stream_candidates(self, win, l):
        """Per row and window-end offset, the kept candidate stride.

        For endpoint ``q`` at ``k_off`` positions from the window end, the
        scalar scan keeps the *smallest* start ``p`` in
        ``[max(q-dmax, prev_u+1), q-k_off]`` whose value is ``u-1`` (with
        ``u = pages[q]``): scanning positions ascending, an occurrence of
        ``u`` invalidates any earlier candidate (it would sit before the
        previous ``u`` reference, so ``q`` is not its first successor).
        """
        k, L = win.shape
        dmax = self.dmax
        rowsel = np.arange(k, dtype=np.int64)
        cand = np.zeros((k, dmax), dtype=np.int64)
        pivots = np.zeros((k, dmax), dtype=np.int64)
        for k_off in range(1, dmax + 1):
            lq = l - k_off
            ep_ok = lq >= 0
            u = win[rowsel, np.where(ep_ok, lq, 0)]
            cd = np.zeros(k, dtype=np.int64)
            for o in range(dmax, 0, -1):
                p = lq - o
                p_ok = ep_ok & (p >= 0)
                pv = win[rowsel, np.where(p_ok, p, 0)]
                cd[p_ok & (pv == u)] = 0
                if o >= k_off:
                    start = p_ok & (pv == u - 1) & (cd == 0)
                    cd[start] = o
            cand[:, k_off - 1] = np.where(ep_ok, cd, 0)
            pivots[:, k_off - 1] = u + 1
        return cand, pivots

    def _finalize_streams(self, cand, pivots, l):
        """Scalar per-row dedup/sort (≤ dmax tiny items per row)."""
        dmax = self.dmax
        out = []
        for r in range(cand.shape[0]):
            lr = int(l[r])
            by_pivot: dict[int, tuple[int, int]] = {}
            # Ascending end index (descending k_off): plain overwrite is
            # the keep-latest-per-pivot rule (end indices are distinct).
            for k_off in range(dmax, 0, -1):
                d = cand[r, k_off - 1]
                if d:
                    by_pivot[int(pivots[r, k_off - 1])] = (lr - k_off, int(d))
            if not by_pivot:
                out.append([])
            elif len(by_pivot) == 1:
                pivot, (e, d) = next(iter(by_pivot.items()))
                out.append([OutstandingStream(stride=d, end_index=e, pivot=pivot)])
            else:
                out.append(
                    [
                        OutstandingStream(stride=d, end_index=e, pivot=pivot)
                        for e, d, pivot in sorted(
                            (e, d, pivot) for pivot, (e, d) in by_pivot.items()
                        )
                    ]
                )
        return out

    # ------------------------------------------------------------------
    # the batched per-fault analysis
    # ------------------------------------------------------------------
    def analyze_many(
        self,
        rows,
        *,
        fallback_interval: float,
        rtt_s,
        available_bw_bps,
        page_size: float,
        max_pages: int,
        min_pages: int,
    ) -> BatchAnalysis:
        """One dependent-zone analysis per row, vectorized across rows."""
        rows = np.asarray(rows, dtype=np.int64)
        rtt_s = np.asarray(rtt_s, dtype=np.float64)
        bw = np.asarray(available_bw_bps, dtype=np.float64)
        if np.any(bw <= 0.0):
            raise ValueError("available bandwidth must be positive")

        win, l = self._linear(rows, self._pages, _PAD)
        dmin = self._dmin_grid(win)
        counts = self._stride_count_grid(win, dmin)
        score = self._locality(counts, l)

        # r = l / (T_l - T_1) with the scalar short-window fallback, which
        # also covers a subnormal span whose quotient overflows to inf.
        length = self.length
        base = self._base[rows]
        nxt = self._next[rows]
        t_first = self._times[rows, base % length]
        has = nxt > base
        t_last = self._times[rows, np.where(has, (nxt - 1) % length, 0)]
        span = t_last - t_first
        pos = (l >= 2) & (span > 0.0)
        with np.errstate(over="ignore"):
            quot = l / np.where(pos, span, 1.0)
        pos &= quot < np.inf
        rate = np.where(pos, quot, 1.0 / fallback_interval)

        td = page_size / bw
        horizon = rtt_s + td + 1.0 / rate

        # c = mean CPU share: np.cumsum's running prefix reproduces the
        # scalar left-to-right sum() bit for bit (it is *not* pairwise).
        cpus, _ = self._linear(rows, self._cpus, 0.0)
        csum = np.cumsum(cpus, axis=1)
        rowsel = np.arange(rows.shape[0], dtype=np.int64)
        last_col = np.where(l > 0, l - 1, 0)
        c = np.where(l > 0, csum[rowsel, last_col] / np.where(l > 0, l, 1), 1.0)
        c_next = np.where(l > 0, cpus[rowsel, last_col], 1.0)
        big_c = c > 1e-9
        cpu_ratio = np.where(big_c, c_next / np.where(big_c, c, 1.0), 1.0)

        zone = cpu_ratio * score * rate * horizon
        if np.isnan(zone).any():
            raise ValueError("cannot convert float NaN to integer")
        # Pre-clip only so the int64 cast cannot overflow; the clamps
        # below are the scalar ``if n > max / if n < min`` comparisons.
        n = np.clip(zone, -1.0, float(max_pages) + 1.0).astype(np.int64)
        n = np.where(n > max_pages, max_pages, n)
        n = np.where(n < min_pages, min_pages, n)

        cand, pivots = self._stream_candidates(win, l)
        streams = self._finalize_streams(cand, pivots, l)
        return BatchAnalysis(
            score=score,
            rate=rate,
            td=td,
            horizon=horizon,
            cpu_ratio=cpu_ratio,
            zone=zone,
            n=n,
            stride_counts=counts,
            streams=streams,
        )

    # ------------------------------------------------------------------
    # per-row scalar accessors (the BatchedWindowView surface)
    # ------------------------------------------------------------------
    def row_len(self, row: int) -> int:
        return int(self._next[row] - self._base[row])

    def row_wraps(self, row: int) -> int:
        return int(self._wraps[row])

    def row_pages(self, row: int) -> tuple[int, ...]:
        length = self.length
        base = int(self._base[row])
        nxt = int(self._next[row])
        pages = self._pages[row]
        return tuple(int(pages[p % length]) for p in range(base, nxt))

    def row_times(self, row: int) -> tuple[float, ...]:
        length = self.length
        base = int(self._base[row])
        nxt = int(self._next[row])
        times = self._times[row]
        return tuple(float(times[p % length]) for p in range(base, nxt))

    def row_cpus(self, row: int) -> tuple[float, ...]:
        length = self.length
        base = int(self._base[row])
        nxt = int(self._next[row])
        cpus = self._cpus[row]
        return tuple(float(cpus[p % length]) for p in range(base, nxt))

    def row_last_page(self, row: int) -> int | None:
        if self._next[row] == self._base[row]:
            return None
        return int(self._pages[row, (self._next[row] - 1) % self.length])


class BatchedWindowView:
    """One engine row exposed through the ``IncrementalWindow`` surface.

    Lets the executor, the differential oracle and the unit tests read a
    batched migrant exactly like a scalar one.  Derived-quantity queries
    run the row through the *batched* code path (a one-row batch), so the
    wired-in simulator genuinely exercises the vectorized kernels.
    """

    __slots__ = ("engine", "row", "_idx")

    def __init__(self, engine: BatchedWindowEngine, row: int) -> None:
        self.engine = engine
        self.row = row
        self._idx = np.array([row], dtype=np.int64)

    # -- LookbackWindow-compatible surface ------------------------------
    @property
    def length(self) -> int:
        return self.engine.length

    @property
    def dmax(self) -> int:
        return self.engine.dmax

    @property
    def wraps(self) -> int:
        return self.engine.row_wraps(self.row)

    def __len__(self) -> int:
        return self.engine.row_len(self.row)

    @property
    def full(self) -> bool:
        return self.engine.row_len(self.row) == self.engine.length

    @property
    def pages(self) -> tuple[int, ...]:
        return self.engine.row_pages(self.row)

    @property
    def times(self) -> tuple[float, ...]:
        return self.engine.row_times(self.row)

    @property
    def cpus(self) -> tuple[float, ...]:
        return self.engine.row_cpus(self.row)

    @property
    def last_page(self) -> int | None:
        return self.engine.row_last_page(self.row)

    def record(self, vpn: int, time: float, cpu: float) -> bool:
        mask = self.engine.record_many(
            self._idx, (vpn,), (time,), (cpu,)
        )
        return bool(mask[0])

    # -- derived quantities (one-row batches) ---------------------------
    def _analysis(self, fallback_interval: float = 1.0) -> BatchAnalysis:
        return self.engine.analyze_many(
            self._idx,
            fallback_interval=fallback_interval,
            rtt_s=(0.0,),
            available_bw_bps=(1.0,),
            page_size=1.0,
            max_pages=1,
            min_pages=0,
        )

    def paging_rate(self, fallback_interval: float) -> float:
        return float(self._analysis(fallback_interval).rate[0])

    def mean_cpu(self) -> float:
        engine, row = self.engine, self.row
        l = engine.row_len(row)
        if l == 0:
            return 1.0
        cpus, _ = engine._linear(self._idx, engine._cpus, 0.0)
        return float(np.cumsum(cpus[0])[l - 1] / l)

    def last_cpu(self) -> float:
        l = self.engine.row_len(self.row)
        if l == 0:
            return 1.0
        cpus = self.engine.row_cpus(self.row)
        return cpus[-1]

    def stride_counts(self) -> dict[int, int]:
        counts = self._analysis().stride_counts[0]
        return {d: int(counts[d - 1]) for d in range(1, self.engine.dmax + 1)}

    def locality_score(self) -> float:
        return float(self._analysis().score[0])

    def outstanding_streams(self) -> list[OutstandingStream]:
        return self._analysis().streams[0]


class BatchedAMPoMPrefetcher:
    """Drop-in :class:`repro.core.prefetcher.AMPoMPrefetcher` replacement
    whose window state lives in a shared :class:`BatchedWindowEngine` row.

    ``on_fault`` performs the identical Algorithm-1 step sequence — record,
    eq. 1 score, paging rate, eq. 3 zone size, stream selection, residency
    filter, trace update — with every window-derived quantity produced by
    the batched kernels, so a ``REPRO_BATCH=1`` run is bit-identical to the
    scalar path (the golden matrix and the differential oracle gate this).
    """

    needs_conditions = True

    def __init__(
        self,
        config: AMPoMConfig,
        hardware: HardwareSpec,
        address_limit: int,
        engine: BatchedWindowEngine | None = None,
    ) -> None:
        self.config = config
        self.hardware = hardware
        self.address_limit = address_limit
        if engine is None:
            engine = BatchedWindowEngine(config.lookback_length, config.dmax)
        elif (engine.length, engine.dmax) != (config.lookback_length, config.dmax):
            raise ConfigurationError(
                "engine geometry does not match the AMPoM config "
                f"({engine.length}, {engine.dmax}) != "
                f"({config.lookback_length}, {config.dmax})"
            )
        self.engine = engine
        self.row = engine.new_row()
        self.window = BatchedWindowView(engine, self.row)
        self._idx = np.array([self.row], dtype=np.int64)
        self.name = "ampom"
        # Same simulated figure-11 analysis cost model as the scalar
        # prefetcher (pinned to the paper's kernel, not to our own speed).
        reference_work = 20 * 4
        work = config.lookback_length * config.dmax
        self.analysis_time = hardware.analysis_time_per_fault * work / reference_work
        self.last_trace = PrefetchTrace()
        self.analyses = 0
        self.check_oracle = None

    def on_fault(self, vpn, now, cpu_share, residency, conditions) -> list[int]:
        """One batched dependent-zone analysis (a one-row batch)."""
        cfg = self.config
        engine = self.engine
        engine.record_many(self._idx, (vpn,), (now,), (cpu_share,))
        self.analyses += 1

        res = engine.analyze_many(
            self._idx,
            fallback_interval=cfg.initial_paging_interval,
            rtt_s=(conditions.rtt_s,),
            available_bw_bps=(conditions.available_bw_bps,),
            page_size=self.hardware.page_size,
            max_pages=cfg.max_zone_pages,
            min_pages=cfg.min_zone_pages,
        )
        score = float(res.score[0])
        rate = float(res.rate[0])
        td = float(res.td[0])
        horizon = float(res.horizon[0])
        cpu_ratio = float(res.cpu_ratio[0])
        n = int(res.n[0])
        streams = res.streams[0]
        if n <= 0:
            dependent: list[int] = []
        elif streams:
            dependent = select_from_streams(streams, n, self.address_limit)
        else:
            dependent = readahead_fallback(
                engine.row_last_page(self.row), n, self.address_limit
            )
        if self.check_oracle is not None:
            self.check_oracle.verify_analysis(
                pages=self.window.pages,
                dmax=cfg.dmax,
                score=score,
                paging_rate=rate,
                horizon=horizon,
                rtt_s=conditions.rtt_s,
                page_transfer_time=td,
                cpu_ratio=cpu_ratio,
                zone_size=n,
                max_pages=cfg.max_zone_pages,
                min_pages=cfg.min_zone_pages,
                streams=streams,
                dependent=dependent,
                address_limit=self.address_limit,
            )
        remote = residency.remote_set
        requested = [p for p in dependent if p != vpn and p in remote]

        trace = self.last_trace
        trace.score = score
        trace.paging_rate = rate
        trace.horizon = horizon
        trace.zone_size = n
        trace.outstanding_streams = len(streams)
        trace.requested = len(requested)
        return requested


class BatchedAnalysisPool:
    """Shared engines for every concurrent migrant of one run.

    A :class:`repro.cluster.session.ScenarioRuntime` owns one pool when
    ``config.batch.enabled`` is set; each AMPoM migrant allocates a row in
    the engine matching its window geometry, so all concurrent migrants'
    window state lives in the same arrays.

    Only AMPoM has a batched engine.  When a migrant resolves a
    different prefetch policy while a pool is armed, the policy factory
    quiesces that migrant to the scalar per-fault path and records why
    in :attr:`quiesce_log` — the same contract ``REPRO_SHARD`` honours
    with ``ShardPlan.sequential_reason``.
    """

    __slots__ = ("_engines", "quiesce_log")

    def __init__(self) -> None:
        self._engines: dict[tuple[int, int], BatchedWindowEngine] = {}
        #: ``(policy_name, reason)`` per scalar-path quiesce decision.
        self.quiesce_log: list[tuple[str, str]] = []

    def note_quiesce(self, policy: str, reason: str) -> None:
        self.quiesce_log.append((policy, reason))

    def engine(self, length: int, dmax: int) -> BatchedWindowEngine:
        key = (length, dmax)
        engine = self._engines.get(key)
        if engine is None:
            engine = BatchedWindowEngine(length, dmax)
            self._engines[key] = engine
        return engine

    def prefetcher(
        self, config: AMPoMConfig, hardware: HardwareSpec, address_limit: int
    ) -> BatchedAMPoMPrefetcher:
        return BatchedAMPoMPrefetcher(
            config,
            hardware,
            address_limit,
            engine=self.engine(config.lookback_length, config.dmax),
        )


__all__ = [
    "BatchAnalysis",
    "BatchedAMPoMPrefetcher",
    "BatchedAnalysisPool",
    "BatchedWindowEngine",
    "BatchedWindowView",
    "MAX_VPN",
]
