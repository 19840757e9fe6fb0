"""Unit and property tests for dependent-zone sizing and selection."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.check.oracle import ref_select_dependent_pages
from repro.core.zone import (
    dependent_zone_size,
    prefetch_horizon,
    readahead_fallback,
    select_from_streams,
)

from .conftest import filled_window, select_pages


class TestHorizon:
    def test_formula(self):
        """t = 2*t0 + td + 1/r (eq. 3 / figure 3)."""
        assert prefetch_horizon(0.004, 0.0005, 0.001) == pytest.approx(0.0055)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            prefetch_horizon(-1, 0, 0)


class TestZoneSize:
    def test_formula(self):
        # N = (c'/c) * S * r * t
        assert dependent_zone_size(0.5, 1000.0, 0.02, cpu_ratio=1.0) == 10

    def test_cpu_ratio_scales(self):
        assert dependent_zone_size(0.5, 1000.0, 0.02, cpu_ratio=2.0) == 20

    def test_clamped_to_max(self):
        assert dependent_zone_size(1.0, 1e6, 1.0, max_pages=256) == 256

    def test_floor_applies_when_pattern_unclear(self):
        assert dependent_zone_size(0.0, 1000.0, 0.02, min_pages=8) == 8

    def test_no_floor_by_default(self):
        assert dependent_zone_size(0.0, 1000.0, 0.02) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            dependent_zone_size(0.5, -1.0, 0.02)
        with pytest.raises(ValueError):
            dependent_zone_size(0.5, 1.0, 0.02, min_pages=10, max_pages=5)

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1e5),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0.1, max_value=10),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=64, max_value=512),
    )
    def test_always_in_bounds(self, s, r, t, c, lo, hi):
        n = dependent_zone_size(s, r, t, cpu_ratio=c, max_pages=hi, min_pages=lo)
        assert lo <= n <= hi


class TestSelection:
    def test_paper_pivots_receive_quota(self):
        """Pivots 16, 5, 6 from the section-3.4 example split N = 6 evenly."""
        pages = [13, 27, 7, 8, 14, 8, 3, 15, 4, 5]
        selected = select_pages(pages, n=6, address_limit=1000)
        assert len(selected) == 6
        # Each pivot contributes its quota of 2 consecutive pages.
        assert {16, 17, 5, 7, 6, 8} >= set(selected)
        assert {16, 5, 6} <= set(selected)

    def test_saved_quota_extends_walk(self):
        """A page claimed by an earlier stream costs no quota (section 3.4)."""
        pages = [10, 20, 11, 21, 12, 22]  # pivots 13 (stride 2) and 23 (stride 2)
        selected = select_pages(pages, n=4, address_limit=1000)
        assert set(selected) == {13, 14, 23, 24}

    def test_overlapping_pivot_regions_use_saved_quota(self):
        # Pivot A = 13, pivot B = 14: B's walk skips 14 if A claimed it.
        pages = [99, 12, 98, 13, 97, 12, 13, 14]
        # streams ending near the end: {12,13} d=?, {13,14} d=1 -> pivots 14, 15
        selected = select_pages(pages, n=4, address_limit=1000)
        assert len(set(selected)) == len(selected) == 4

    def test_fallback_read_ahead_after_last_reference(self):
        """No outstanding stream: the N pages after r_l are dependent."""
        pages = [50, 10, 90, 30]
        selected = select_pages(pages, n=3, address_limit=1000)
        assert selected == [31, 32, 33]

    def test_fallback_respects_address_limit(self):
        pages = [50, 10, 90, 30]
        assert select_pages(pages, n=5, address_limit=32) == [31]

    def test_stream_walk_respects_address_limit(self):
        selected = select_pages([1, 2, 3], n=10, address_limit=6)
        assert selected == [4, 5]

    def test_zero_n_selects_nothing(self):
        streams = filled_window([1, 2, 3]).outstanding_streams()
        assert select_from_streams(streams, 0, address_limit=100) == []
        assert readahead_fallback(3, 0, address_limit=100) == []

    def test_empty_window_selects_nothing(self):
        # The prefetcher records before it selects, so only the reference
        # ever sees an empty window.
        assert ref_select_dependent_pages([], n=5, dmax=4, address_limit=100) == []

    def test_remainder_distributed_to_first_streams(self):
        pages = [10, 20, 11, 21, 12, 22]  # two pivots: 13, 23
        selected = select_pages(pages, n=5, address_limit=1000)
        assert len(selected) == 5

    @given(
        st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=64),
    )
    def test_selection_invariants(self, pages, n):
        limit = 1000
        selected = select_pages(pages, n=n, address_limit=limit)
        assert len(selected) <= n
        assert len(set(selected)) == len(selected)  # no duplicates
        assert all(0 <= p < limit for p in selected)

    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=20))
    def test_selection_deterministic(self, pages):
        a = select_pages(pages, n=16, address_limit=1000)
        b = select_pages(pages, n=16, address_limit=1000)
        assert a == b
