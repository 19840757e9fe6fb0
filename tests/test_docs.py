"""The docs agree with the code: doctests, and the environment-variable table."""

from __future__ import annotations

import doctest
import pathlib
import re

DOCS_DIR = pathlib.Path(__file__).parent.parent / "docs"


def test_algorithm_walkthrough_examples_pass():
    results = doctest.testfile(
        str(DOCS_DIR / "ALGORITHM.md"), module_relative=False, report=False
    )
    assert results.attempted == 9
    assert results.failed == 0


def _documented_env_vars() -> set[str]:
    """`REPRO_*` names in the first column of the "Environment variables"
    table of docs/PERFORMANCE.md."""
    text = (DOCS_DIR / "PERFORMANCE.md").read_text()
    section = text.split("## Environment variables\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return {row.split("`")[1] for row in rows}


def test_environment_variable_table_matches_source():
    """Every `REPRO_*` name the package mentions is in the table, and the
    table lists nothing the package no longer reads."""
    src = DOCS_DIR.parent / "src" / "repro"
    used = set()
    for path in src.rglob("*.py"):
        used.update(re.findall(r"REPRO_[A-Z][A-Z_]*", path.read_text()))
    assert used == _documented_env_vars()
