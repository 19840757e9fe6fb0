"""Machine-speed probe: a fixed unit of work that does not use ``repro``.

The benchmark shares its host with other tenants, and the host's speed
drifts by tens of percent over minutes, more than any bound a regression
gate can use.  Each measuring process therefore times this probe between
its cells and scales its host times to a reference speed::

    reported = measured * (REFERENCE_UNIT_S / probe_s) ** SPEED_EXPONENT

where ``probe_s`` is the probe's time around the measured stretch.

The probe is a miniature discrete-event loop (generator processes
resumed from a heap, set lookups, small objects), the same kind of work
the simulator does.  Its code and inputs are fixed: it measures the
host, never the program, so a faster program still reads as faster.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter

#: Probe time of one unit on the reference host (seconds); it only sets
#: the scale of the reported times.
REFERENCE_UNIT_S = 0.0045
#: How strongly reported times follow the probe.  Contention slows the
#: short probe more than it slows the simulator, so the full ratio
#: over-corrects.  Measured on a 2-core shared host (coefficient of
#: variation, raw -> exponent 0.5 / 0.75 / 1.0): ``paper_matrix`` passes,
#: scaled per half-second stretch, 13.6% -> 5.6 / 3.9 / 5.8%;
#: ``fleet_300`` passes 10.2% -> 7.6 / 10.0 / 13.4%; medians of 7 set-up
#: samples 9.2% -> 3.3 / 3.7 / 7.2%.  Over ten runs per workload the
#: spread of run medians of ``wall_s`` was 3-9% at 0.75 and 7-13% at 0.5.
SPEED_EXPONENT = 0.75
#: Units per probe sample; the sample is their median.
UNITS_PER_SAMPLE = 15


class _Wake:
    __slots__ = ("delay", "hits")

    def __init__(self, delay: float, hits: int) -> None:
        self.delay = delay
        self.hits = hits


def _unit(n_events: int = 4000) -> int:
    state = 12345
    pages = set(range(0, 4096, 3))

    def process():
        nonlocal state
        hits = 0
        while True:
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            vpn = state & 4095
            if vpn in pages:
                hits += 1
            else:
                pages.add(vpn)
            yield _Wake(((state >> 8) & 255) * 1e-4, hits)

    heap = [(0.0, i, process()) for i in range(16)]
    heapq.heapify(heap)
    seq, acc = len(heap), 0
    for _ in range(n_events):
        now, _, gen = heapq.heappop(heap)
        wake = next(gen)
        acc += wake.hits
        heapq.heappush(heap, (now + wake.delay, seq, gen))
        seq += 1
    return acc


def unit_s() -> float:
    """One probe sample: the median time of a few units."""
    times = []
    for _ in range(UNITS_PER_SAMPLE):
        t0 = perf_counter()
        _unit()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def speed_scale(unit: float) -> float:
    """Factor from host seconds measured at probe time ``unit`` to
    seconds at the reference speed."""
    return (REFERENCE_UNIT_S / unit) ** SPEED_EXPONENT
