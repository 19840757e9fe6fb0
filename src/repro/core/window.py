"""The lookback window ``W`` with its companion arrays ``T`` and ``C``.

Paper section 3.1: ``W`` records the addresses of the pages accessed in the
last ``l`` page faults; ``T`` holds each entry's access time and ``C`` the
CPU utilization of the process when the entry was recorded.  When the
window is full the oldest entry is discarded.  Consecutive repeated
references to the same page are a form of temporal locality and are counted
as a single reference (``r_p != r_{p+1}``), so a repeat of the newest entry
is not recorded.

This is the *naive reference* window: it stores only the raw deques and
derives everything on demand.  The per-fault hot path uses
:class:`repro.core.incremental.IncrementalWindow`, which implements the
identical recording semantics plus incrementally maintained stride/stream
state; the hypothesis suite in ``tests/core/test_incremental.py`` pins the
two to each other under arbitrary push/evict sequences.
"""

from __future__ import annotations

import math
from collections import deque

from ..errors import ConfigurationError


class LookbackWindow:
    """Fixed-length window over the fault stream."""

    def __init__(self, length: int) -> None:
        if length < 2:
            raise ConfigurationError(f"window length must be >= 2, got {length}")
        self.length = length
        self._pages: deque[int] = deque(maxlen=length)
        self._times: deque[float] = deque(maxlen=length)
        self._cpus: deque[float] = deque(maxlen=length)
        #: Number of times the window wrapped (oldest entry evicted); the
        #: infoD daemon re-samples bandwidth once per wrap (section 4).
        self.wraps = 0

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def full(self) -> bool:
        return len(self._pages) == self.length

    @property
    def pages(self) -> tuple[int, ...]:
        """The reference stream ``R = r_1 .. r_l`` (oldest first)."""
        return tuple(self._pages)

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(self._times)

    @property
    def cpus(self) -> tuple[float, ...]:
        return tuple(self._cpus)

    @property
    def last_page(self) -> int | None:
        return self._pages[-1] if self._pages else None

    def record(self, vpn: int, time: float, cpu: float) -> bool:
        """Append a fault to the window.

        Returns ``False`` when the entry was a consecutive repeat of the
        newest page (temporal locality; not recorded).
        """
        if self._pages and self._pages[-1] == vpn:
            return False
        if self._times and time < self._times[-1]:
            raise ConfigurationError(
                f"fault times must be non-decreasing ({time} < {self._times[-1]})"
            )
        wrapping = len(self._pages) == self.length
        self._pages.append(vpn)
        self._times.append(time)
        self._cpus.append(min(max(cpu, 0.0), 1.0))
        if wrapping:
            self.wraps += 1
        return True

    # ------------------------------------------------------------------
    # derived quantities of section 3.3
    # ------------------------------------------------------------------
    def paging_rate(self, fallback_interval: float) -> float:
        """``r = l / (T_l - T_1)``, the average paging rate over the window.

        Before the window spans a time interval long enough to give a
        finite rate (a subnormal span overflows ``l / span``) the rate is
        estimated as one fault per ``fallback_interval``.
        """
        if len(self._times) >= 2:
            span = self._times[-1] - self._times[0]
            if span > 0.0:
                rate = len(self._times) / span
                if rate < math.inf:
                    return rate
        return 1.0 / fallback_interval

    def mean_cpu(self) -> float:
        """``c = sum(C_i) / l`` — average CPU share over the window."""
        if not self._cpus:
            return 1.0
        return sum(self._cpus) / len(self._cpus)

    def last_cpu(self) -> float:
        """``c' = C_l`` — the paper's estimate of next-period CPU share."""
        return self._cpus[-1] if self._cpus else 1.0
