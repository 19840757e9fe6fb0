"""The AMPoM algorithm (the paper's primary contribution, sections 3-4).

* :mod:`repro.core.incremental` — :class:`IncrementalWindow`, the lookback
  window ``W`` with its access-time array ``T`` and CPU-utilization array
  ``C``, plus incrementally maintained stride counts, the spatial locality
  score ``S`` (eq. 1) and the outstanding-stream / prefetch-pivot analysis
  (O(dmax) updates per fault instead of O(l·dmax) rescans).  Its
  brute-force reference is :mod:`repro.check.oracle`.
* :mod:`repro.core.zone` — dependent-zone sizing ``N`` (eq. 2/3) and page
  selection with per-pivot quotas and saved-quota reuse.
* :mod:`repro.core.prefetcher` — :class:`AMPoMPrefetcher`, the Algorithm-1
  driver that ties the pieces together.
* :mod:`repro.core.policy` — the pluggable prefetch-policy interface and
  the baseline policies (NoPrefetch, fixed and Linux-style read-ahead).
"""

from .incremental import IncrementalWindow, OutstandingStream
from .policy import (
    FixedReadAheadPolicy,
    LinkConditions,
    LinuxReadAheadPolicy,
    NoPrefetchPolicy,
    PrefetchPolicy,
)
from .prefetcher import AMPoMPrefetcher
from .vm_prefetcher import VmAmpomPrefetcher
from .zone import (
    dependent_zone_size,
    prefetch_horizon,
    readahead_fallback,
    select_from_streams,
)

__all__ = [
    "AMPoMPrefetcher",
    "FixedReadAheadPolicy",
    "IncrementalWindow",
    "LinkConditions",
    "LinuxReadAheadPolicy",
    "NoPrefetchPolicy",
    "OutstandingStream",
    "PrefetchPolicy",
    "VmAmpomPrefetcher",
    "dependent_zone_size",
    "prefetch_horizon",
    "readahead_fallback",
    "select_from_streams",
]
