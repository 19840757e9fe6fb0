"""The worked examples in docs/ALGORITHM.md run as doctests."""

from __future__ import annotations

import doctest
import pathlib

DOCS_DIR = pathlib.Path(__file__).parent.parent / "docs"


def test_algorithm_walkthrough_examples_pass():
    results = doctest.testfile(
        str(DOCS_DIR / "ALGORITHM.md"), module_relative=False, report=False
    )
    assert results.attempted == 9
    assert results.failed == 0
