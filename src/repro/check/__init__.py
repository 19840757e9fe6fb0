"""Runtime correctness tooling for the AMPoM reproduction.

Three independent layers, all configured by
:class:`repro.config.CheckSpec` and all pure observers (a run with checks
enabled is bit-identical to the same run with checks off):

* :class:`InvariantChecker` — hooked into the simulator and the migrant
  executor; after every migration/paging/prefetch event it verifies
  page-residency conservation (each page in exactly one of
  MAPPED/BUFFERED/IN_FLIGHT/REMOTE, mirrored by the MPT/HPT split of
  paper section 2.2), the no-duplicate-transfer rule, virtual-clock
  monotonicity, and counter consistency.  Violations raise a structured
  :class:`repro.errors.InvariantViolation` carrying the recent event
  trace.
* :class:`DifferentialOracle` — a brute-force reference implementation of
  the AMPoM equations (eq. 1 ``S``, eq. 2/3 ``N``, outstanding-stream
  pivot selection with saved quota) cross-checked against
  :mod:`repro.core` on every dependent-zone analysis; :class:`RefWindow`
  is the matching reference for the lookback window's recording rules.
* The golden-trace harness (:mod:`repro.check.golden`) — records a
  deterministic JSONL event log for a fixed scenario matrix and diffs it
  structurally (``repro check record`` / ``repro check diff``), so
  behavioral drift fails CI.

See ``docs/CHECKS.md`` for the full semantics.
"""

from .golden import SCENARIOS, GoldenScenario, diff_scenarios, record_scenarios
from .invariants import CheckEvent, InvariantChecker
from .oracle import (
    DifferentialOracle,
    RefWindow,
    ref_locality_score,
    ref_outstanding_streams,
    ref_select_dependent_pages,
    ref_stride_counts,
    ref_zone_size,
)

__all__ = [
    "CheckEvent",
    "DifferentialOracle",
    "GoldenScenario",
    "InvariantChecker",
    "RefWindow",
    "SCENARIOS",
    "diff_scenarios",
    "record_scenarios",
    "ref_locality_score",
    "ref_outstanding_streams",
    "ref_select_dependent_pages",
    "ref_stride_counts",
    "ref_zone_size",
]
