"""The differential oracle: references agree with production, and the
oracle actually fires on a disagreement."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.check.oracle import (
    DifferentialOracle,
    RefWindow,
    positions_of,
    ref_locality_score,
    ref_outstanding_streams,
    ref_select_dependent_pages,
    ref_stride_counts,
    ref_zone_size,
)
from repro.core.incremental import IncrementalWindow
from repro.core.zone import dependent_zone_size, readahead_fallback, select_from_streams
from repro.errors import ConfigurationError, InvariantViolation

#: Fault streams long enough to wrap the window below many times.
faults = st.lists(st.integers(min_value=0, max_value=60), max_size=40)
dmaxes = st.integers(min_value=1, max_value=6)


def _windows(vpns, dmax, length=10):
    """Record ``vpns`` one time unit apart into the production window and
    the reference window; yield both after every record."""
    inc, ref = IncrementalWindow(length, dmax), RefWindow(length)
    for i, vpn in enumerate(vpns):
        assert inc.record(vpn, float(i), 1.0) == ref.record(vpn, float(i), 1.0)
        yield inc, ref


def _select(window, n, limit):
    """The prefetcher's page selection for an analysed window."""
    streams = window.outstanding_streams()
    if streams:
        return select_from_streams(streams, n, limit)
    return readahead_fallback(window.last_page, n, limit)


class TestReferencesMatchProduction:
    """The naive O(l²) transcriptions and the incremental window are two
    independent codings of the same paper text; they must agree exactly
    on every window a fault stream passes through."""

    @given(faults, dmaxes)
    def test_stride_counts(self, vpns, dmax):
        for inc, ref in _windows(vpns, dmax):
            assert ref_stride_counts(ref.pages, dmax) == inc.stride_counts()

    @given(faults, dmaxes)
    def test_locality_score(self, vpns, dmax):
        for inc, ref in _windows(vpns, dmax):
            assert ref_locality_score(ref.pages, dmax) == inc.locality_score()

    @given(faults, dmaxes)
    def test_outstanding_streams(self, vpns, dmax):
        for inc, ref in _windows(vpns, dmax):
            production = [
                (s.stride, s.end_index, s.pivot) for s in inc.outstanding_streams()
            ]
            assert ref_outstanding_streams(ref.pages, dmax) == production

    @given(faults, st.integers(min_value=0, max_value=40), dmaxes)
    def test_dependent_page_selection(self, vpns, n, dmax):
        limit = 1000
        for inc, ref in _windows(vpns, dmax):
            assert ref_select_dependent_pages(ref.pages, n, dmax, limit) == (
                _select(inc, n, limit)
            )

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.001, max_value=1e6),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=64, max_value=4096),
    )
    def test_zone_size(self, s, r, t, c, lo, hi):
        assert ref_zone_size(s, r, t, c, hi, lo) == dependent_zone_size(
            s, r, t, cpu_ratio=c, max_pages=hi, min_pages=lo
        )

    def test_paper_worked_example(self):
        pages = [10, 99, 11, 34, 12, 85]
        assert ref_locality_score(pages, 4) == pytest.approx(0.25)
        assert ref_stride_counts(pages, 4) == {1: 0, 2: 3, 3: 0, 4: 0}

    def test_ref_window_recording_rules(self):
        window = RefWindow(3)
        assert window.record(7, 0.0, 2.0)
        assert not window.record(7, 1.0, 1.0)  # consecutive repeat
        for i, vpn in enumerate((8, 9, 10)):
            assert window.record(vpn, 1.0 + i, -1.0)
        assert list(window.pages) == [8, 9, 10]
        assert window.wraps == 1
        assert list(window.cpus) == [0.0, 0.0, 0.0]
        with pytest.raises(ConfigurationError):
            window.record(11, 0.5, 1.0)
        with pytest.raises(ConfigurationError):
            RefWindow(1)


# The oracle's scans as first written: exhaustive O(l²) pair scans with no
# position index.  Kept here, verbatim, as the reference the indexed scans
# of repro.check.oracle are held to.
def quadratic_stride_counts(pages, dmax):
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    n = len(pages)
    participants: dict[int, set[int]] = {d: set() for d in range(1, dmax + 1)}
    for p in range(n):
        distances = [abs(q - p) for q in range(n) if pages[q] == pages[p] + 1]
        if not distances:
            continue
        d = min(distances)
        if 1 <= d <= dmax:
            participants[d].add(pages[p])
            participants[d].add(pages[p] + 1)
    return {d: len(s) for d, s in participants.items()}


def quadratic_locality_score(pages, dmax):
    length = len(pages)
    if length == 0:
        return 0.0
    counts = quadratic_stride_counts(pages, dmax)
    score = sum(count / (length * d) for d, count in counts.items())
    return min(max(score, 0.0), 1.0)


def quadratic_outstanding_streams(pages, dmax):
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    n = len(pages)
    by_pivot: dict[int, tuple[int, int, int]] = {}
    for p in range(n):
        forward = [q for q in range(p + 1, n) if pages[q] == pages[p] + 1]
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


def quadratic_select_dependent_pages(window_pages, n, dmax, address_limit):
    if n <= 0 or not window_pages:
        return []
    streams = quadratic_outstanding_streams(window_pages, dmax)
    if not streams:
        last = window_pages[-1]
        return list(range(last + 1, min(last + 1 + n, address_limit)))
    m = len(streams)
    selected: list[int] = []
    for i, (_, _, pivot) in enumerate(streams):
        quota = n // m + (1 if i < n % m else 0)
        vpn = pivot
        while quota > 0 and vpn < address_limit:
            if vpn not in selected:
                selected.append(vpn)
                quota -= 1
            vpn += 1
    return selected


@st.composite
def raw_windows(draw):
    """Raw windows, not fault streams, of up to 40 pages.  A small page
    alphabet gives repeats (consecutive ones too) and backward pairs
    (``r_p + 1`` before ``r_p``); interleaved ascending runs at the end
    give several outstanding streams, whose selections can overlap."""
    pages = draw(st.lists(st.integers(min_value=0, max_value=24), max_size=40))
    starts = draw(st.lists(st.integers(min_value=0, max_value=24), max_size=3))
    for step in range(draw(st.integers(min_value=0, max_value=4))):
        pages.extend(start + step for start in starts)
    return pages[-40:]


class TestIndexedScansMatchQuadratic:
    """The indexed scans equal the O(l²) pair scans on every window."""

    @given(raw_windows(), dmaxes)
    @example(pages=[6, 9, 9, 5, 6], dmax=3)  # nearest successor is behind
    def test_stride_counts(self, pages, dmax):
        expected = quadratic_stride_counts(pages, dmax)
        assert ref_stride_counts(pages, dmax) == expected
        assert ref_stride_counts(pages, dmax, positions_of(pages)) == expected

    @given(raw_windows(), dmaxes)
    def test_locality_score(self, pages, dmax):
        expected = quadratic_locality_score(pages, dmax)
        assert ref_locality_score(pages, dmax) == expected
        assert ref_locality_score(pages, dmax, positions_of(pages)) == expected

    @given(raw_windows(), dmaxes)
    @example(pages=[4, 9, 9, 5, 4, 5], dmax=3)  # two pairs share pivot 6
    def test_outstanding_streams(self, pages, dmax):
        expected = quadratic_outstanding_streams(pages, dmax)
        assert ref_outstanding_streams(pages, dmax) == expected
        assert ref_outstanding_streams(pages, dmax, positions_of(pages)) == expected

    @given(
        raw_windows(),
        st.integers(min_value=-1, max_value=256),
        dmaxes,
        st.integers(min_value=0, max_value=300),
    )
    @example(pages=[5, 10, 6, 11], n=41, dmax=2, limit=300)  # quotas overlap
    def test_dependent_page_selection(self, pages, n, dmax, limit):
        assert ref_select_dependent_pages(pages, n, dmax, limit) == (
            quadratic_select_dependent_pages(pages, n, dmax, limit)
        )


class TestVerifyAnalysis:
    def _analysis(self, **overrides):
        """One genuine analysis of a sequential window; overrides inject
        a disagreement for the oracle to catch."""
        dmax = 4
        window = IncrementalWindow(4, dmax)
        for i, vpn in enumerate((5, 6, 7, 8)):
            window.record(vpn, float(i), 1.0)
        rtt, td, rate, cpu_ratio = 0.001, 0.0005, 100.0, 1.0
        horizon = rtt + td + 1.0 / rate
        score = window.locality_score()
        n = dependent_zone_size(score, rate, horizon, cpu_ratio=cpu_ratio, max_pages=64)
        streams = window.outstanding_streams()
        kwargs = dict(
            pages=window.pages,
            dmax=dmax,
            score=score,
            paging_rate=rate,
            horizon=horizon,
            rtt_s=rtt,
            page_transfer_time=td,
            cpu_ratio=cpu_ratio,
            zone_size=n,
            max_pages=64,
            min_pages=0,
            streams=streams,
            dependent=select_from_streams(streams, n, 1000),
            address_limit=1000,
        )
        kwargs.update(overrides)
        return kwargs

    def test_correct_analysis_verifies(self):
        oracle = DifferentialOracle()
        oracle.verify_analysis(**self._analysis())
        assert oracle.verified == 1

    def test_wrong_score_caught(self):
        oracle = DifferentialOracle()
        with pytest.raises(InvariantViolation) as exc:
            oracle.verify_analysis(**self._analysis(score=0.5))
        assert exc.value.invariant == "oracle:eq1-score"

    def test_one_ulp_off_caught(self):
        # Production and oracle share the float operation order, so the
        # comparisons are exact: a one-ulp difference is a mismatch.
        good = self._analysis()
        oracle = DifferentialOracle()
        for field, invariant in (("score", "eq1-score"), ("horizon", "eq3-horizon")):
            with pytest.raises(InvariantViolation) as exc:
                oracle.verify_analysis(
                    **self._analysis(**{field: math.nextafter(good[field], 2.0)})
                )
            assert exc.value.invariant == f"oracle:{invariant}"

    def test_wrong_horizon_caught(self):
        oracle = DifferentialOracle()
        with pytest.raises(InvariantViolation) as exc:
            oracle.verify_analysis(**self._analysis(horizon=42.0))
        assert exc.value.invariant in ("oracle:eq3-horizon", "oracle:eq2-zone-size")

    def test_wrong_zone_size_caught(self):
        oracle = DifferentialOracle()
        with pytest.raises(InvariantViolation) as exc:
            oracle.verify_analysis(**self._analysis(zone_size=63))
        assert exc.value.invariant == "oracle:eq2-zone-size"

    def test_wrong_streams_caught(self):
        oracle = DifferentialOracle()
        with pytest.raises(InvariantViolation) as exc:
            oracle.verify_analysis(**self._analysis(streams=[]))
        assert exc.value.invariant == "oracle:outstanding-streams"

    def test_wrong_selection_caught(self):
        oracle = DifferentialOracle()
        with pytest.raises(InvariantViolation) as exc:
            oracle.verify_analysis(**self._analysis(dependent=[999]))
        assert exc.value.invariant == "oracle:dependent-zone-selection"

    def test_failed_analysis_not_counted(self):
        oracle = DifferentialOracle()
        with pytest.raises(InvariantViolation):
            oracle.verify_analysis(**self._analysis(score=0.5))
        assert oracle.verified == 0


class TestOracleRunsInSimulation:
    def test_oracle_attached_and_exercised(self):
        from repro.cluster.runner import MigrationRun
        from repro.config import CheckSpec, SimulationConfig
        from repro.migration.ampom import AmpomMigration
        from repro.units import mib
        from repro.workloads.synthetic import SequentialWorkload

        run = MigrationRun(
            SequentialWorkload(mib(1), sweeps=1),
            AmpomMigration(),
            config=SimulationConfig().with_(checks=CheckSpec(enabled=True)),
        )
        run.execute()
        oracle = run.outcome.policy.check_oracle
        assert oracle is not None
        assert oracle.verified > 0

    def test_oracle_can_be_disabled_separately(self):
        from repro.cluster.runner import MigrationRun
        from repro.config import CheckSpec, SimulationConfig
        from repro.migration.ampom import AmpomMigration
        from repro.units import mib
        from repro.workloads.synthetic import SequentialWorkload

        run = MigrationRun(
            SequentialWorkload(mib(1), sweeps=1),
            AmpomMigration(),
            config=SimulationConfig().with_(checks=CheckSpec(enabled=True, oracle=False)),
        )
        run.execute()
        assert run.outcome.policy.check_oracle is None
        assert run.checker.deep_audits >= 1
