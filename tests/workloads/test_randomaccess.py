"""Unit tests for the RandomAccess (GUPS) trace generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.check.oracle import ref_locality_score
from repro.errors import ConfigurationError
from repro.units import mib
from repro.workloads.randomaccess import RandomAccessWorkload


def refs(w):
    w.setup()
    return np.concatenate([c.pages for c in w.trace()])


def test_update_count():
    w = RandomAccessWorkload(mib(2), update_factor=3.0)
    assert w.n_updates == 3 * w.table_pages
    assert len(refs(w)) == w.n_updates


def test_references_stay_in_table():
    w = RandomAccessWorkload(mib(1))
    pages = refs(w)
    table = w.address_space.region("table")
    assert pages.min() >= table.start_page
    assert pages.max() < table.end_page


def test_coverage_is_high():
    """update_factor 4 touches ~98% of the table (1 - e^-4)."""
    w = RandomAccessWorkload(mib(4))
    distinct = len(np.unique(refs(w)))
    assert distinct / w.table_pages > 0.9


def test_deterministic_per_seed():
    a = refs(RandomAccessWorkload(mib(1), seed=3))
    b = refs(RandomAccessWorkload(mib(1), seed=3))
    c = refs(RandomAccessWorkload(mib(1), seed=4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spatial_locality_is_low_but_nonzero():
    """Figure 4 places RandomAccess at low (not zero) spatial locality."""
    w = RandomAccessWorkload(mib(8))
    pages = refs(w)
    scores = [
        ref_locality_score(pages[i : i + 20].tolist(), dmax=4)
        for i in range(0, 2000, 20)
    ]
    mean = sum(scores) / len(scores)
    assert 0.02 < mean < 0.45


def test_pure_random_when_bursts_disabled():
    w = RandomAccessWorkload(mib(8), burst_fraction=0.0)
    pages = refs(w)
    sequential_pairs = int(np.sum(np.diff(pages) == 1))
    assert sequential_pairs / len(pages) < 0.01


def test_validation():
    with pytest.raises(ConfigurationError):
        RandomAccessWorkload(mib(1), update_factor=0)
    with pytest.raises(ConfigurationError):
        RandomAccessWorkload(mib(1), burst_fraction=1.0)
    with pytest.raises(ConfigurationError):
        RandomAccessWorkload(mib(1), burst_pages=1)
