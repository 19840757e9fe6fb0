"""Differential tests: BatchedWindowEngine vs per-migrant IncrementalWindow.

The batched engine's contract is *exact* equality — every float a batched
analysis produces must be bit-identical to the scalar path's, because the
golden matrix and the differential oracle treat the two as interchangeable.
All assertions here are ``==`` on floats, never ``approx``.

The Hypothesis suite drives arbitrary interleaved multi-migrant fault
streams: each round a subset of migrants faults simultaneously (one
``record_many``/``analyze_many`` pair across those rows) while shadow
:class:`IncrementalWindow` instances replay the same stream one migrant at
a time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import MAX_VPN, BatchedWindowEngine
from repro.core.incremental import IncrementalWindow
from repro.core.zone import select_from_streams
from repro.errors import ConfigurationError

LENGTH, DMAX = 8, 3
FALLBACK = 0.1
PAGE_SIZE = 4096.0
ADDRESS_LIMIT = 1 << 20


def scalar_analysis(win: IncrementalWindow, rtt: float, bw: float,
                    max_pages: int, min_pages: int) -> dict:
    """The scalar per-fault quantities, in AMPoMPrefetcher.on_fault's
    exact operation order."""
    score = win.locality_score()
    rate = win.paging_rate(FALLBACK)
    td = PAGE_SIZE / bw
    horizon = rtt + td + 1.0 / rate
    c = win.mean_cpu()
    c_next = win.last_cpu()
    cpu_ratio = (c_next / c) if c > 1e-9 else 1.0
    zone = cpu_ratio * score * rate * horizon
    n = int(zone)
    if n > max_pages:
        n = max_pages
    if n < min_pages:
        n = min_pages
    return {
        "score": score,
        "rate": rate,
        "td": td,
        "horizon": horizon,
        "cpu_ratio": cpu_ratio,
        "n": n,
        "counts": win.stride_counts(),
        "streams": win.outstanding_streams(),
    }


# One round: a distinct-migrant subset faulting at the same instant.
rounds = st.lists(
    st.tuples(
        st.dictionaries(  # migrant -> (vpn, cpu)
            st.integers(min_value=0, max_value=3),
            st.tuples(
                st.integers(min_value=0, max_value=40),
                st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
            ),
            min_size=1,
            max_size=4,
        ),
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),  # dt
        st.floats(min_value=0.0, max_value=0.05, allow_nan=False),  # rtt
        st.floats(min_value=1e6, max_value=1e9, allow_nan=False),  # bw
    ),
    min_size=1,
    max_size=25,
)


class TestDifferentialEquality:
    @given(
        rounds,
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_interleaved_streams_bit_identical(self, stream, min_pages, extra):
        max_pages = min_pages + extra
        engine = BatchedWindowEngine(LENGTH, DMAX, capacity=2)
        rows = {m: engine.new_row() for m in range(4)}
        shadows = {m: IncrementalWindow(LENGTH, DMAX) for m in range(4)}
        t = 0.0
        for faults, dt, rtt, bw in stream:
            t += dt
            migrants = sorted(faults)
            idx = np.array([rows[m] for m in migrants], dtype=np.int64)
            vpns = np.array([faults[m][0] for m in migrants], dtype=np.int64)
            cpus = np.array([faults[m][1] for m in migrants], dtype=np.float64)
            recorded = engine.record_many(
                idx, vpns, np.full(len(migrants), t), cpus
            )
            res = engine.analyze_many(
                idx,
                fallback_interval=FALLBACK,
                rtt_s=np.full(len(migrants), rtt),
                available_bw_bps=np.full(len(migrants), bw),
                page_size=PAGE_SIZE,
                max_pages=max_pages,
                min_pages=min_pages,
            )
            for i, m in enumerate(migrants):
                win = shadows[m]
                assert bool(recorded[i]) == win.record(
                    int(vpns[i]), t, float(cpus[i])
                )
                want = scalar_analysis(win, rtt, bw, max_pages, min_pages)
                # Eq. 1 score S, paging rate r, horizon t, and N — exact.
                assert float(res.score[i]) == want["score"]
                assert float(res.rate[i]) == want["rate"]
                assert float(res.td[i]) == want["td"]
                assert float(res.horizon[i]) == want["horizon"]
                assert float(res.cpu_ratio[i]) == want["cpu_ratio"]
                assert int(res.n[i]) == want["n"]
                # stride_d contribution table, d = 1..dmax.
                got_counts = {
                    d: int(res.stride_counts[i, d - 1])
                    for d in range(1, DMAX + 1)
                }
                assert got_counts == want["counts"]
                # Outstanding streams and the selected zone pages (the
                # scalar path only selects when n > 0 and streams exist).
                assert res.streams[i] == want["streams"]
                if want["n"] > 0 and want["streams"]:
                    assert select_from_streams(
                        res.streams[i], want["n"], ADDRESS_LIMIT
                    ) == select_from_streams(
                        want["streams"], want["n"], ADDRESS_LIMIT
                    )

    @given(rounds)
    @settings(max_examples=40, deadline=None)
    def test_window_state_matches_shadow(self, stream):
        engine = BatchedWindowEngine(LENGTH, DMAX, capacity=1)
        rows = {m: engine.new_row() for m in range(4)}
        shadows = {m: IncrementalWindow(LENGTH, DMAX) for m in range(4)}
        t = 0.0
        for faults, dt, _, _ in stream:
            t += dt
            migrants = sorted(faults)
            idx = np.array([rows[m] for m in migrants], dtype=np.int64)
            engine.record_many(
                idx,
                np.array([faults[m][0] for m in migrants], dtype=np.int64),
                np.full(len(migrants), t),
                np.array([faults[m][1] for m in migrants], dtype=np.float64),
            )
            for m in migrants:
                shadows[m].record(faults[m][0], t, faults[m][1])
        for m in range(4):
            row, win = rows[m], shadows[m]
            assert engine.row_pages(row) == win.pages
            assert engine.row_times(row) == win.times
            assert engine.row_cpus(row) == win.cpus
            assert engine.row_len(row) == len(win)
            assert engine.row_last_page(row) == win.last_page


class TestRecordManyEdges:
    def test_consecutive_repeat_not_recorded(self):
        engine = BatchedWindowEngine(LENGTH, DMAX)
        row = engine.new_row()
        idx = np.array([row], dtype=np.int64)
        assert engine.record_many(idx, (7,), (0.0,), (0.5,))[0]
        assert not engine.record_many(idx, (7,), (1.0,), (0.5,))[0]
        assert engine.row_pages(row) == (7,)

    def test_time_regression_raises(self):
        engine = BatchedWindowEngine(LENGTH, DMAX)
        row = engine.new_row()
        idx = np.array([row], dtype=np.int64)
        engine.record_many(idx, (1,), (2.0,), (0.5,))
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            engine.record_many(idx, (2,), (1.0,), (0.5,))

    def test_vpn_out_of_range_raises(self):
        engine = BatchedWindowEngine(LENGTH, DMAX)
        idx = np.array([engine.new_row()], dtype=np.int64)
        with pytest.raises(ConfigurationError, match="2\\*\\*61"):
            engine.record_many(idx, (MAX_VPN,), (0.0,), (0.5,))
        with pytest.raises(ConfigurationError, match="2\\*\\*61"):
            engine.record_many(idx, (-1,), (0.0,), (0.5,))

    def test_row_growth_preserves_state(self):
        engine = BatchedWindowEngine(LENGTH, DMAX, capacity=1)
        first = engine.new_row()
        idx = np.array([first], dtype=np.int64)
        engine.record_many(idx, (3,), (0.0,), (0.5,))
        for _ in range(7):  # forces repeated _grow()
            engine.new_row()
        assert engine.rows == 8
        assert engine.row_pages(first) == (3,)

    def test_subnormal_span_uses_fallback_rate(self):
        # Two faults a subnormal interval apart: l / span overflows, so the
        # rate falls back exactly as the scalar window's does.
        engine = BatchedWindowEngine(LENGTH, DMAX)
        row = engine.new_row()
        idx = np.array([row], dtype=np.int64)
        shadow = IncrementalWindow(LENGTH, DMAX)
        for vpn, t, cpu in ((1, 0.0, 1.0), (0, 1.1125369292536007e-308, 0.0)):
            engine.record_many(idx, (vpn,), (t,), (cpu,))
            shadow.record(vpn, t, cpu)
        res = engine.analyze_many(
            idx,
            fallback_interval=FALLBACK,
            rtt_s=(0.0,),
            available_bw_bps=(1e6,),
            page_size=PAGE_SIZE,
            max_pages=8,
            min_pages=0,
        )
        assert float(res.rate[0]) == shadow.paging_rate(FALLBACK) == 1.0 / FALLBACK
        want = scalar_analysis(shadow, 0.0, 1e6, 8, 0)
        assert int(res.n[0]) == want["n"]
