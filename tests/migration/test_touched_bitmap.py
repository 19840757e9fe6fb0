"""The executor's touched-page bitmap gives the same ``wasted_pages`` as
set arithmetic over the pages each chunk referenced."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.runner import MigrationRun
from repro.cluster.session import ScenarioRuntime
from repro.cluster.topology import HOME, MigrantSpec, NodeGraph, ScenarioSpec
from repro.migration.ampom import AmpomMigration
from repro.migration.executor import MigrantExecutor
from repro.units import mib
from repro.workloads.replay import ReplayWorkload
from repro.workloads.synthetic import AllocatingWorkload


@pytest.fixture
def spy(monkeypatch):
    """Record every executor that marks pages, and the pages it marked as
    a plain set (the old bookkeeping)."""
    seen: dict = {"executors": [], "touched": set()}
    mark = MigrantExecutor._mark_touched

    def recording(self, pages):
        if self not in seen["executors"]:
            seen["executors"].append(self)
        seen["touched"].update(np.unique(pages).tolist())
        mark(self, pages)

    monkeypatch.setattr(MigrantExecutor, "_mark_touched", recording)
    return seen


def _set_arithmetic(spy) -> int:
    fetched = spy["executors"][-1]._fetched
    return len(fetched - spy["touched"])


def _runs(starts, length):
    """Sequential runs of ``length`` pages from each start: AMPoM prefetches
    past the end of each run, so some fetched pages are never touched."""
    return np.concatenate([np.arange(s, s + length) for s in starts])


def test_three_hop_carries_the_bitmap(spy):
    spec = ScenarioSpec(
        graph=NodeGraph((HOME, "n1", "n2")),
        migrants=(
            MigrantSpec(
                workload=ReplayWorkload(
                    _runs(range(0, 20000, 2000), 600), n_pages=20000, chunk_refs=256
                ),
                strategy=AmpomMigration(),
                path=(HOME, "n1", "n2"),
                hop_delays=(0.05,),
            ),
        ),
    )
    (result,) = ScenarioRuntime(spec).execute()
    legs = spy["executors"]
    assert len(legs) == 2  # one leg on n1, one on n2
    # Every leg shares the fetched set and picks up the previous leg's bitmap.
    assert all(leg._fetched is legs[0]._fetched for leg in legs)
    assert np.count_nonzero(legs[-1]._touched) == len(spy["touched"])
    assert result.wasted_pages == _set_arithmetic(spy) > 0


def test_creates_pages_workload(spy):
    run = MigrationRun(AllocatingWorkload(mib(2)), AmpomMigration())
    result = run.execute()
    assert result.wasted_pages == _set_arithmetic(spy)


def test_pages_past_the_first_chunk_grow_the_bitmap(spy):
    # Small chunks that climb far past the first chunk's maximum, then a
    # jump back: prefetched pages beyond every touched page stay wasted.
    pages = np.concatenate([_runs((0,), 64), _runs((1000,), 400), _runs((64,), 136)])
    w = ReplayWorkload(pages, n_pages=4096, chunk_refs=32)
    result = MigrationRun(w, AmpomMigration()).execute()
    (executor,) = spy["executors"]
    assert executor._touched.size > 64
    assert result.wasted_pages == _set_arithmetic(spy) > 0
