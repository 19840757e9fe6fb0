"""Point-to-point links: latency + bandwidth + FIFO serialization.

A :class:`Direction` is a one-way channel.  A transfer submitted at time
``now`` starts serializing when the channel is free (``max(now,
busy_until)``), occupies it for ``size / bandwidth`` seconds, and arrives
``latency`` seconds after serialization completes.  This reproduces the two
quantities AMPoM's formula for the prefetch horizon needs (paper eq. 3):
the round-trip latency ``2 * t0`` and the per-page transfer time ``td``,
including queuing delay when the channel is saturated by prefetch traffic.

Every transfer is logged (start, end, size) so the monitoring daemon can
read "RX/TX bytes" counters at arbitrary times, exactly like the paper's
``/sbin/ifconfig`` sampling.
"""

from __future__ import annotations

from bisect import bisect_right

from ..config import NetworkSpec
from ..errors import NetworkError

#: Transfer-log length at which old entries are considered for compaction.
COMPACT_THRESHOLD = 8192


class Direction:
    """One direction of a duplex link."""

    def __init__(self, spec: NetworkSpec, name: str = "") -> None:
        self.name = name
        self.bandwidth_bps = spec.bandwidth_bps
        self.latency_s = spec.latency_s
        self.per_message_overhead_bytes = spec.per_message_overhead_bytes
        self.per_page_overhead_bytes = spec.per_page_overhead_bytes
        self.counter_horizon_s = spec.counter_horizon_s
        self.busy_until = 0.0
        self.total_bytes = 0
        self.total_messages = 0
        #: Optional tracing hook ``(name, start, serialize_end, size,
        #: arrival) -> None`` fired once per message — the repro.obs span
        #: tracer attaches here to record wire occupancy.  Pure observer:
        #: it must not call back into the link.  None on untraced runs, so
        #: the hot path pays one attribute test per transfer.
        self.trace_hook = None
        # Parallel arrays logging each transfer for counter reads.  The
        # log is periodically compacted: entries that finished serializing
        # more than ``counter_horizon_s`` before the latest transfer are
        # folded into ``_compacted_bytes`` so the log stays bounded.
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._cum_bytes: list[int] = []
        self._compacted_bytes = 0

    # ------------------------------------------------------------------
    def reconfigure(self, bandwidth_bps: float, latency_s: float) -> None:
        """Change rate/delay for *future* transfers (traffic shaping).

        In-flight transfers keep their original timing, mirroring how a
        ``tc`` qdisc change affects only newly enqueued packets.
        """
        if bandwidth_bps <= 0:
            raise NetworkError(f"bandwidth must be positive: {bandwidth_bps}")
        if latency_s < 0:
            raise NetworkError(f"latency must be non-negative: {latency_s}")
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s

    def transfer(self, payload_bytes: int, now: float) -> float:
        """Submit a message; return its arrival time at the far end."""
        if payload_bytes < 0:
            raise NetworkError(f"payload_bytes must be non-negative: {payload_bytes}")
        size = payload_bytes + self.per_message_overhead_bytes
        start = self.busy_until if self.busy_until > now else now
        end = start + size / self.bandwidth_bps
        self.busy_until = end
        self.total_bytes += size
        self.total_messages += 1
        self._starts.append(start)
        self._ends.append(end)
        prev = self._cum_bytes[-1] if self._cum_bytes else self._compacted_bytes
        self._cum_bytes.append(prev + size)
        if len(self._ends) >= COMPACT_THRESHOLD:
            self.compact(now - self.counter_horizon_s)
        arrival = end + self.latency_s
        if self.trace_hook is not None:
            self.trace_hook(self.name, start, end, size, arrival)
        return arrival

    def transfer_page(self, page_size: int, now: float) -> float:
        """Submit one page payload (page + per-page protocol overhead)."""
        return self.transfer(page_size + self.per_page_overhead_bytes, now)

    def transfer_batch(self, payload_bytes: int, times: list[float]) -> list[float]:
        """Submit one ``payload_bytes`` message at each time in ``times``
        (non-decreasing); return the per-message arrival times.

        Bit-identical to calling :meth:`transfer` once per entry — same
        serialization, log and compaction arithmetic — but the bookkeeping
        locals are bound once per batch instead of once per message, which
        matters when the deputy serializes a deep prefetch train.
        """
        if type(self).transfer is not Direction.transfer or self.trace_hook is not None:
            # A subclass customises transfer (e.g. fault injection) or a
            # tracer wants per-message spans; take the exact per-message
            # path so their behaviour is preserved.
            return [self.transfer(payload_bytes, t) for t in times]
        if payload_bytes < 0:
            raise NetworkError(f"payload_bytes must be non-negative: {payload_bytes}")
        size = payload_bytes + self.per_message_overhead_bytes
        duration = size / self.bandwidth_bps
        latency = self.latency_s
        horizon = self.counter_horizon_s
        starts, ends, cum = self._starts, self._ends, self._cum_bytes
        busy = self.busy_until
        prev = cum[-1] if cum else self._compacted_bytes
        arrivals: list[float] = []
        for now in times:
            start = busy if busy > now else now
            busy = start + duration
            starts.append(start)
            ends.append(busy)
            prev += size
            cum.append(prev)
            arrivals.append(busy + latency)
            if len(ends) >= COMPACT_THRESHOLD:
                self.compact(now - horizon)
                prev = cum[-1] if cum else self._compacted_bytes
        self.busy_until = busy
        self.total_bytes += size * len(times)
        self.total_messages += len(times)
        return arrivals

    # ------------------------------------------------------------------
    def queuing_delay(self, now: float) -> float:
        """How long a message submitted now would wait before serializing."""
        return max(0.0, self.busy_until - now)

    def bytes_sent_by(self, t: float) -> float:
        """Cumulative bytes that have finished (or partially finished)
        serializing by time ``t`` — the simulated interface TX counter.

        Exact for any ``t`` inside the retained log (the last
        ``counter_horizon_s`` of traffic, which covers every live monitor
        query); for older, compacted times it returns the compaction
        baseline, which keeps the counter monotone non-decreasing.
        """
        i = bisect_right(self._ends, t)
        done = float(self._cum_bytes[i - 1]) if i > 0 else float(self._compacted_bytes)
        if i < len(self._starts) and self._starts[i] < t:
            start, end = self._starts[i], self._ends[i]
            prev = self._cum_bytes[i - 1] if i > 0 else self._compacted_bytes
            size = self._cum_bytes[i] - prev
            done += size * (t - start) / (end - start)
        return done

    def compact(self, before: float) -> int:
        """Drop log entries that finished serializing at or before
        ``before``; their bytes fold into the compaction baseline so
        :meth:`bytes_sent_by` stays exact for every later time.  Returns
        how many entries were dropped.
        """
        k = bisect_right(self._ends, before)
        if k == 0:
            return 0
        self._compacted_bytes = self._cum_bytes[k - 1]
        del self._starts[:k]
        del self._ends[:k]
        del self._cum_bytes[:k]
        return k


class Link:
    """A duplex link between two named endpoints."""

    def __init__(self, a: str, b: str, spec: NetworkSpec) -> None:
        if a == b:
            raise NetworkError(f"cannot link node {a!r} to itself")
        self.a = a
        self.b = b
        self.spec = spec
        self._directions = {
            (a, b): Direction(spec, name=f"{a}->{b}"),
            (b, a): Direction(spec, name=f"{b}->{a}"),
        }

    def direction(self, src: str, dst: str) -> Direction:
        """The one-way channel from ``src`` to ``dst``."""
        try:
            return self._directions[(src, dst)]
        except KeyError:
            raise NetworkError(f"link {self.a!r}<->{self.b!r} does not connect {src!r}->{dst!r}")

    def replace_direction(self, src: str, dst: str, direction: Direction) -> None:
        """Swap in a replacement channel (e.g. a fault-injecting wrapper)."""
        if (src, dst) not in self._directions:
            raise NetworkError(f"link {self.a!r}<->{self.b!r} does not connect {src!r}->{dst!r}")
        self._directions[(src, dst)] = direction

    @property
    def endpoints(self) -> tuple[str, str]:
        return (self.a, self.b)

    def reconfigure(self, bandwidth_bps: float, latency_s: float) -> None:
        """Reshape both directions (symmetric shaping, as in the paper)."""
        for direction in self._directions.values():
            direction.reconfigure(bandwidth_bps, latency_s)
