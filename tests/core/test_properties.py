"""Cross-cutting algebraic properties of the AMPoM equations.

The per-module suites (test_locality/test_stride/test_zone) pin worked
examples and local behavior; this suite states laws that tie the pieces
together — invariances of the stride analysis, normalization of ``S``,
and conservation of the quota split — the properties the invariant
checker of :mod:`repro.check` relies on.  Every law runs on the
production path: :class:`repro.core.incremental.IncrementalWindow` plus
:func:`repro.core.zone.select_from_streams`.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.zone import dependent_zone_size, select_from_streams

from .conftest import filled_window, select_pages

windows = st.lists(st.integers(min_value=0, max_value=80), max_size=25)
#: The prefetcher selects only after recording a fault.
nonempty_windows = st.lists(st.integers(min_value=0, max_value=80), min_size=1, max_size=25)
dmaxes = st.integers(min_value=1, max_value=6)


def score(pages, dmax):
    return filled_window(pages, dmax).locality_score()


def stride_counts(pages, dmax):
    return filled_window(pages, dmax).stride_counts()


# ----------------------------------------------------------------------
# eq. 1 — spatial locality score
# ----------------------------------------------------------------------
class TestScoreLaws:
    @given(windows, dmaxes)
    def test_score_in_unit_interval(self, pages, dmax):
        assert 0.0 <= score(pages, dmax) <= 1.0

    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=2, max_value=25))
    def test_pure_sequential_scores_exactly_one(self, start, length):
        pages = list(range(start, start + length))
        assert score(pages, dmax=4) == 1.0

    @given(windows, st.integers(min_value=1, max_value=5))
    def test_score_monotone_in_dmax(self, pages, dmax):
        """Raising dmax only admits more strides; S never decreases."""
        assert score(pages, dmax + 1) >= score(pages, dmax) - 1e-12

    def test_paper_worked_example_pinned(self):
        """Section 3.2: {10,99,11,34,12,85} has stride_2 = 3 and S = 0.25."""
        pages = [10, 99, 11, 34, 12, 85]
        assert stride_counts(pages, 4) == {1: 0, 2: 3, 3: 0, 4: 0}
        assert score(pages, 4) == pytest.approx(3 / (6 * 2))


# ----------------------------------------------------------------------
# section 3.1 — stride counting invariances
# ----------------------------------------------------------------------
class TestStrideInvariances:
    @given(windows, dmaxes, st.integers(min_value=-1000, max_value=1000))
    def test_translation_invariance(self, pages, dmax, shift):
        """Strides depend on page *differences*; shifting the whole
        window leaves every count unchanged."""
        shifted = [vpn + shift for vpn in pages]
        assert stride_counts(shifted, dmax) == {
            d: c for d, c in stride_counts(pages, dmax).items()
        }

    @given(windows, dmaxes)
    def test_reversal_invariance(self, pages, dmax):
        """Minimum *absolute* window distance is symmetric under
        reversing the reference order (eq. 1 counts descending sweeps)."""
        assert stride_counts(list(reversed(pages)), dmax) == stride_counts(pages, dmax)

    @given(windows, dmaxes)
    def test_counts_are_distinct_pages(self, pages, dmax):
        distinct = len(set(pages) | {vpn + 1 for vpn in pages})
        for count in stride_counts(pages, dmax).values():
            assert 0 <= count <= distinct

    @given(windows, dmaxes)
    def test_outstanding_streams_use_window_strides(self, pages, dmax):
        """Every outstanding stream is a forward pair within dmax whose
        endpoint is near the window end, and pivots are unique."""
        window = filled_window(pages, dmax)
        streams = window.outstanding_streams()
        pivots = [s.pivot for s in streams]
        assert len(pivots) == len(set(pivots))
        held = window.pages
        n = len(held)
        for s in streams:
            assert 1 <= s.stride <= dmax
            assert s.end_index >= n - s.stride
            assert held[s.end_index] + 1 == s.pivot


# ----------------------------------------------------------------------
# eq. 2/3 + section 3.4 — quota split conservation
# ----------------------------------------------------------------------
class TestQuotaSplit:
    @given(nonempty_windows, st.integers(min_value=0, max_value=64), dmaxes)
    def test_selection_bounded_by_n(self, pages, n, dmax):
        """The m per-stream shares sum to N, so at most N pages are
        selected (address-limit truncation can only shrink it)."""
        selected = select_pages(pages, n, 10_000, dmax)
        assert len(selected) <= n

    @given(nonempty_windows, st.integers(min_value=0, max_value=64), dmaxes)
    def test_saved_quota_never_double_prefetches(self, pages, n, dmax):
        selected = select_pages(pages, n, 10_000, dmax)
        assert len(selected) == len(set(selected))

    @given(windows, st.integers(min_value=1, max_value=64), dmaxes)
    def test_full_quota_spent_when_space_allows(self, pages, n, dmax):
        """Far from the address limit, saved quota guarantees exactly N
        distinct pages come back (each stream walks until its share is
        spent)."""
        if not pages:
            return
        streams = filled_window(pages, dmax).outstanding_streams()
        if streams:
            assert len(select_from_streams(streams, n, 1_000_000)) == n

    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=25),
        st.integers(min_value=1, max_value=64),
    )
    def test_empty_stream_set_falls_back_to_read_ahead(self, pages, n):
        """With no outstanding stream the selection imitates Linux
        read-ahead: the N pages after the last reference, in order."""
        shuffled = [vpn * 3 for vpn in pages]  # stride 3 > dmax: no streams
        if filled_window(shuffled, 2).outstanding_streams():
            return
        selected = select_pages(shuffled, n, 10_000, dmax=2)
        last = shuffled[-1]
        assert selected == list(range(last + 1, last + 1 + n))

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.001, max_value=1e5),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_zone_size_monotone_in_score(self, s, r, t):
        """More locality never shrinks the dependent zone."""
        lo = dependent_zone_size(s / 2, r, t, max_pages=4096)
        hi = dependent_zone_size(s, r, t, max_pages=4096)
        assert hi >= lo
