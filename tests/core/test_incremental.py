"""IncrementalWindow ≡ the oracle's reference window and equations.

The incremental sliding-window analysis is a pure optimization: after any
sequence of records (pushes and implied evictions) every query must return
*exactly* — bit-for-bit for the float quantities — what the brute-force
references of :mod:`repro.check.oracle` return for the same stream: the
deque-based :class:`~repro.check.oracle.RefWindow` for the recording
rules, and ``ref_stride_counts`` / ``ref_locality_score`` /
``ref_outstanding_streams`` over its pages.  Hypothesis drives arbitrary
streams through both and compares after every single record, so any
divergence pins the exact prefix that caused it.  The tests of the first
two classes are one law split by quantity.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.oracle import (
    RefWindow,
    ref_locality_score,
    ref_outstanding_streams,
    ref_stride_counts,
)
from repro.core.incremental import IncrementalWindow
from repro.errors import ConfigurationError

#: Small page universe so streams collide (strides, repeats, evictions).
records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),  # vpn
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),  # dt
        st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),  # cpu
    ),
    max_size=60,
)
lengths = st.integers(min_value=2, max_value=12)
dmaxes = st.integers(min_value=1, max_value=5)


def _drive(stream, length, dmax):
    """Feed the stream to both windows, comparing after every record."""
    inc = IncrementalWindow(length, dmax)
    ref = RefWindow(length)
    t = 0.0
    for vpn, dt, cpu in stream:
        t += dt
        assert inc.record(vpn, t, cpu) == ref.record(vpn, t, cpu)
        yield inc, ref


def _triples(streams):
    return [(s.stride, s.end_index, s.pivot) for s in streams]


class TestWindowSurface:
    """The recording surface against the reference window."""

    @given(records, lengths, dmaxes)
    def test_contents_track_naive(self, stream, length, dmax):
        for inc, ref in _drive(stream, length, dmax):
            assert inc.pages == tuple(ref.pages)
            assert inc.times == tuple(ref.times)
            assert inc.cpus == tuple(ref.cpus)
            assert len(inc) == len(ref.pages)
            assert inc.full == (len(ref.pages) == length)
            assert inc.wraps == ref.wraps
            assert inc.last_page == ref.pages[-1]

    @given(records, lengths, dmaxes)
    def test_derived_floats_bit_identical(self, stream, length, dmax):
        for inc, ref in _drive(stream, length, dmax):
            # Exact equality on purpose: the incremental path promises the
            # identical float operation sequence, not approximation.
            assert inc.paging_rate(0.01) == ref.paging_rate(0.01)
            assert inc.mean_cpu() == ref.mean_cpu()
            assert inc.last_cpu() == ref.last_cpu()

    def test_rejects_decreasing_times(self):
        for window in (IncrementalWindow(4, 2), RefWindow(4)):
            assert window.record(1, 1.0, 0.5)
            assert window.record(2, 2.0, 0.5)
            with pytest.raises(ConfigurationError):
                window.record(3, 1.5, 0.5)

    def test_consecutive_repeat_not_recorded(self):
        inc = IncrementalWindow(4, 2)
        assert inc.record(7, 0.0, 1.0)
        assert not inc.record(7, 1.0, 1.0)
        assert inc.pages == (7,)


class TestAnalysisQueries:
    """The per-fault analysis vs the oracle's exhaustive scans."""

    @given(records, lengths, dmaxes)
    def test_stride_counts_match_naive(self, stream, length, dmax):
        for inc, ref in _drive(stream, length, dmax):
            assert inc.stride_counts() == ref_stride_counts(ref.pages, dmax)

    @given(records, lengths, dmaxes)
    def test_locality_score_bit_identical(self, stream, length, dmax):
        for inc, ref in _drive(stream, length, dmax):
            assert inc.locality_score() == ref_locality_score(ref.pages, dmax)

    @given(records, lengths, dmaxes)
    def test_outstanding_streams_match_naive(self, stream, length, dmax):
        for inc, ref in _drive(stream, length, dmax):
            assert _triples(inc.outstanding_streams()) == ref_outstanding_streams(
                ref.pages, dmax
            )

    @settings(max_examples=25)
    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=20, max_value=200),
    )
    def test_long_sequential_stream(self, start, n):
        """Many evictions on the best case for strides (pure sequential)."""
        inc = IncrementalWindow(8, 4)
        ref = RefWindow(8)
        for i in range(n):
            inc.record(start + i, float(i), 1.0)
            ref.record(start + i, float(i), 1.0)
        assert inc.stride_counts() == ref_stride_counts(ref.pages, 4)
        assert inc.locality_score() == 1.0
        assert _triples(inc.outstanding_streams()) == ref_outstanding_streams(
            ref.pages, 4
        )

    def test_paper_example_score(self):
        """The paper's worked example {10,99,11,34,12,85} scores 0.25."""
        inc = IncrementalWindow(20, 2)
        for i, vpn in enumerate((10, 99, 11, 34, 12, 85)):
            inc.record(vpn, float(i), 1.0)
        assert inc.locality_score() == pytest.approx(3 / (6 * 2))
