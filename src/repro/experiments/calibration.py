"""Testbed calibration and the paper's reported numbers.

The simulation's hardware constants model the HKU Gideon 300 cluster
(section 5.1): 300 Pentium 4 2 GHz PCs, 512 MB RAM each, Fast Ethernet,
Fedora Core 1 with Linux 2.4.26 + openMosix 2.4.26-1.  The per-kernel
``page_visit_cost`` defaults in :mod:`repro.workloads` are chosen so the
openMosix (all-local) execution times land in the magnitude range of
figure 6; they scale every scheme identically and do not affect the
orderings or percentages the reproduction asserts.

The ``PAPER_*`` constants below are the numbers the paper reports, used by
the benchmark output and EXPERIMENTS.md for side-by-side comparison.
"""

from __future__ import annotations

from ..config import SimulationConfig


def gideon_config(seed: int = 0) -> SimulationConfig:
    """The default (Fast Ethernet) testbed configuration."""
    return SimulationConfig(seed=seed)


#: Section 5.2: freeze times for the 575 MB DGEMM kernel (seconds).
PAPER_FREEZE_DGEMM_575 = {"AMPoM": 0.6, "openMosix": 53.9, "NoPrefetch": 0.07}

#: Section 5.3: NoPrefetch's extra execution time vs openMosix on the
#: largest run of each kernel (percent).
PAPER_NOPREFETCH_PENALTY_PCT = {
    "DGEMM": 35.0,
    "STREAM": 51.0,
    "RandomAccess": 20.0,
    "FFT": 41.0,
}

#: Section 5.4: fraction of page fault requests AMPoM prevents on the
#: largest run of each kernel (percent).
PAPER_FAULTS_PREVENTED_PCT = {
    "DGEMM": 98.0,
    "STREAM": 99.0,
    "RandomAccess": 85.0,
    "FFT": 97.0,
}

#: Abstract: AMPoM's runtime overhead vs openMosix (percent range) and the
#: RandomAccess exception (section 5.3).
PAPER_AMPOM_OVERHEAD_PCT = (0.0, 5.0)
PAPER_RANDOMACCESS_OVERHEAD_PCT = 4.0

#: Section 5.5: DGEMM 115 MB on AMPoM vs openMosix at each bandwidth
#: (AMPoM's execution as a percentage of openMosix's).
PAPER_BROADBAND_DGEMM = {"100Mb/s": 101.0, "6Mb/s": 108.0}

#: Section 5.7: the dependent-zone analysis consumes < 0.6% of execution
#: time, nearly always < 0.25%.
PAPER_OVERHEAD_MAX_PCT = 0.6
PAPER_OVERHEAD_TYPICAL_PCT = 0.25
