"""Unit and property tests for stride detection.

The unit tests encode the paper's own worked examples (sections 3.1, 3.2,
3.4) verbatim, so any divergence from the published semantics fails here.
They run on :class:`repro.core.incremental.IncrementalWindow`; a raw
sequence with consecutive repeats, which a window never holds, goes to
the oracle references instead.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.check.oracle import ref_stride_counts
from repro.core.incremental import IncrementalWindow
from repro.errors import ConfigurationError

from .conftest import filled_window


def stride_counts(pages, dmax=4):
    return filled_window(pages, dmax).stride_counts()


def outstanding_streams(pages, dmax=4):
    return filled_window(pages, dmax).outstanding_streams()


class TestStrideCounts:
    def test_paper_example_section_3_1(self):
        """{1,99,2,45,3,78,4}: three stride-2 references, stride_2 = 4."""
        counts = stride_counts([1, 99, 2, 45, 3, 78, 4])
        assert counts[2] == 4
        assert counts[1] == 0

    def test_paper_example_section_3_2(self):
        """{10,99,11,34,12,85}: stride_2 = 3 (pages 10, 11, 12)."""
        counts = stride_counts([10, 99, 11, 34, 12, 85])
        assert counts[2] == 3
        assert counts[1] == 0
        assert counts[3] == 0
        assert counts[4] == 0

    def test_pure_sequential_is_all_stride_1(self):
        counts = stride_counts([1, 2, 3, 4, 5])
        assert counts[1] == 5
        assert counts[2] == 0  # minimum distance rule: no double counting

    def test_no_sequential_pairs(self):
        counts = stride_counts([10, 20, 30])
        assert all(v == 0 for v in counts.values())

    def test_minimum_distance_selects_smallest_d(self):
        # 5 appears twice; the closer occurrence (distance 1) wins.
        counts = stride_counts([5, 99, 4, 5])
        assert counts[1] == 2  # pages 4 and 5
        assert counts[2] == 0

    def test_absolute_distance_counts_descending_access(self):
        """A descending sweep {4,3,2,1} still shows spatial locality."""
        counts = stride_counts([4, 3, 2, 1])
        assert counts[1] == 4

    def test_stride_beyond_dmax_ignored(self):
        # Raw references with consecutive repeats: the reference scan.
        counts = ref_stride_counts([1, 9, 9, 9, 2], dmax=2)
        assert all(v == 0 for v in counts.values())
        counts = ref_stride_counts([1, 9, 9, 9, 2], dmax=4)
        assert counts[4] == 2
        # The same distance in a window.
        assert all(v == 0 for v in stride_counts([1, 9, 19, 29, 2], dmax=2).values())
        assert stride_counts([1, 9, 19, 29, 2], dmax=4)[4] == 2

    def test_dmax_validation(self):
        with pytest.raises(ConfigurationError):
            IncrementalWindow(4, dmax=0)
        with pytest.raises(ValueError):
            ref_stride_counts([1, 2], dmax=0)

    def test_empty_window(self):
        assert IncrementalWindow(4, dmax=4).stride_counts() == {1: 0, 2: 0, 3: 0, 4: 0}

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=25))
    def test_counts_bounded_by_window_length(self, pages):
        counts = stride_counts(pages)
        distinct = len(set(pages))
        for v in counts.values():
            assert 0 <= v <= distinct

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=20))
    def test_synthetic_interleaved_streams(self, d, length):
        """d interleaved sequential streams produce stride-d references."""
        base = [1000 * s for s in range(d)]
        pages = []
        for i in range(length):
            for s in range(d):
                pages.append(base[s] + i)
        counts = stride_counts(pages)
        # Every page of every stream participates in a stride-d pair.
        assert counts[d] == d * length
        for other in range(1, 5):
            if other != d:
                assert counts[other] == 0

    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=25))
    def test_matches_bruteforce(self, pages):
        """Cross-check against a direct transcription of the definition."""
        dmax = 4
        window = filled_window(pages, dmax)
        held = window.pages
        expected: dict[int, set[int]] = {d: set() for d in range(1, dmax + 1)}
        for p, vpn in enumerate(held):
            dists = [abs(q - p) for q, other in enumerate(held) if other == vpn + 1]
            if not dists:
                continue
            d = min(dists)
            if 1 <= d <= dmax:
                expected[d].add(vpn)
                expected[d].add(vpn + 1)
        assert window.stride_counts() == {d: len(s) for d, s in expected.items()}


class TestOutstandingStreams:
    def test_paper_example_section_3_4(self):
        """l=10, {13,27,7,8,14,8,3,15,4,5}: pivots are 16, 5, and 6;
        the {7,8} stream is no longer outstanding."""
        pages = [13, 27, 7, 8, 14, 8, 3, 15, 4, 5]
        streams = outstanding_streams(pages)
        pivots = {s.pivot for s in streams}
        assert pivots == {16, 5, 6}
        by_pivot = {s.pivot: s.stride for s in streams}
        assert by_pivot[16] == 3  # {14, 15}
        assert by_pivot[5] == 2  # {3, 4}
        assert by_pivot[6] == 1  # {4, 5}

    def test_old_stream_not_outstanding(self):
        # {7,8} at the start of a length-10 window: endpoint too old.
        pages = [7, 8] + [100 + i * 10 for i in range(8)]
        assert all(s.pivot != 9 for s in outstanding_streams(pages))

    def test_sequential_stream_is_outstanding(self):
        streams = outstanding_streams([1, 2, 3, 4])
        assert [s.pivot for s in streams] == [5]
        assert streams[0].stride == 1

    def test_duplicate_pivots_reported_once(self):
        # Two pairs ending in the same successor page.
        pages = [4, 9, 4, 9, 5]
        streams = outstanding_streams(pages)
        assert len([s for s in streams if s.pivot == 6]) == 1

    def test_backward_pairs_are_not_streams(self):
        """{5,4}: page 4's successor was referenced *before* it; no forward
        progress to extrapolate."""
        assert outstanding_streams([5, 4]) == []

    def test_empty(self):
        assert IncrementalWindow(4, dmax=4).outstanding_streams() == []

    def test_deterministic_order(self):
        pages = [13, 27, 7, 8, 14, 8, 3, 15, 4, 5]
        a = outstanding_streams(pages)
        b = outstanding_streams(pages)
        assert a == b
        assert [s.end_index for s in a] == sorted(s.end_index for s in a)

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=25))
    def test_streams_satisfy_definition(self, pages):
        window = filled_window(pages)
        held = window.pages
        n = len(held)
        for s in window.outstanding_streams():
            assert 1 <= s.stride <= 4
            assert s.end_index >= n - s.stride
            assert held[s.end_index] + 1 == s.pivot
            p = s.end_index - s.stride
            assert held[p] + 1 == held[s.end_index]
