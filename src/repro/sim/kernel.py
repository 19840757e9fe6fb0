"""The discrete-event simulator: clock, scheduling, and the run loop.

The run loop is the innermost loop of every experiment — one iteration per
simulated event — so it is written against the heap's raw ``(time, seq,
event)`` tuples with hoisted method lookups, and the observer dispatch is
skipped entirely while no observer is registered (the common case; only
``REPRO_CHECKS=1`` runs attach one).  ``step()`` keeps the readable
one-event-at-a-time form for tests and interactive use; both paths fire
events in the identical deterministic order.

Inside :meth:`Simulator.run` and :meth:`Simulator.run_until_complete` a
process whose ``Timeout`` wake-up would be the strictly earliest pending
event is resumed in place instead of through the heap ("run-ahead", see
:meth:`repro.sim.process.SimProcess._resume`).  The loops publish what
that needs on the simulator: the horizon a wake-up may not pass, the
``max_events`` limit, the process ``run_until_complete`` waits for, and
the fired-event count every wake-up adds to.  ``step()`` never runs ahead.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Callable, Generator

from ..errors import SimulationError
from .events import Event, EventQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .process import SimProcess


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator advances a floating-point clock (seconds) through an event
    heap.  Work is expressed either as plain callbacks (:meth:`schedule`,
    :meth:`schedule_at`) or as generator-based cooperative processes
    (:meth:`spawn`, see :mod:`repro.sim.process`).

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [2.5]
    """

    __slots__ = (
        "_now", "_queue", "_running", "_observers",
        "_fired", "_horizon", "_limit", "_target",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._running = False
        #: Events fired so far: heap events plus run-ahead wake-ups.
        self._fired = 0
        #: Run-ahead bounds of the active run loop: the latest time a
        #: wake-up may run ahead to (``-inf`` outside a loop, so never),
        #: the ``_fired`` count at which ``max_events`` stops the loop, and
        #: the process ``run_until_complete`` stops at.
        self._horizon = -math.inf
        self._limit = math.inf
        self._target: "SimProcess | None" = None
        #: Pure observers invoked after every fired event with the event
        #: time.  Observers must not schedule or mutate model state; the
        #: repro.check invariant checker uses this to audit clock
        #: monotonicity and to count events.  Kept empty on default runs so
        #: the run loop can take the no-observer fast branch.
        self._observers: list[Callable[[float], None]] = []

    def add_observer(self, observer: Callable[[float], None]) -> None:
        """Register a read-only hook called after each event fires."""
        self._observers.append(observer)

    def remove_observer(self, observer: Callable[[float], None]) -> None:
        """Unregister a previously added observer (no-op if absent)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Events fired so far: heap events plus run-ahead wake-ups.

        A deterministic work count — the same for a given seed whether
        a wake-up went through the heap or ran ahead of it.
        """
        return self._fired

    @property
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            if delay != delay:
                raise SimulationError("cannot schedule at a NaN delay")
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if not time >= self._now:
            if time != time:
                raise SimulationError("cannot schedule at a NaN time")
            raise SimulationError(f"cannot schedule into the past (time={time}, now={self._now})")
        return self._queue.push(time, callback)

    def spawn(
        self,
        generator: Generator,
        name: str = "process",
    ) -> "SimProcess":
        """Start a cooperative process from a generator.

        The generator may ``yield`` :class:`repro.sim.process.Timeout` or
        :class:`repro.sim.process.Completion` instances; the kernel resumes
        it when the awaited condition is satisfied.  The kernel holds no
        reference to the process once spawned — finished processes are
        reclaimed by ordinary garbage collection instead of accumulating
        for the lifetime of the simulator.
        """
        from .process import SimProcess

        proc = SimProcess(self, generator, name=name)
        proc._start()
        return proc

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the earliest event.  Returns ``False`` if none remained."""
        time = self._queue.peek_time()
        if time is None:
            return False
        payload = self._queue.pop()
        if time < self._now:
            raise SimulationError("event heap yielded an event from the past")
        self._now = time
        self._fired += 1
        if payload.__class__ is Event:
            payload.callback()
        else:
            payload()
        if self._observers:
            for observer in self._observers:
                observer(time)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the heap drains, ``until`` is reached, or ``max_events``.

        ``until`` is an absolute simulated time; the clock is advanced to it
        even if the last event fires earlier, mirroring SimPy semantics.
        ``max_events`` is a safety valve for tests; run-ahead wake-ups
        count against it like heap events.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        heap = self._queue._heap
        heappop = heapq.heappop
        observers = self._observers
        limit = math.inf if max_events is None else self._fired + max_events
        saved = self._horizon, self._limit, self._target
        self._horizon = math.inf if until is None else until
        self._limit = limit
        self._target = None
        try:
            while heap:
                time, _seq, payload = heap[0]
                is_event = payload.__class__ is Event
                if is_event and payload.cancelled:
                    heappop(heap)
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and self._fired >= limit:
                    raise SimulationError(f"exceeded max_events={max_events}; runaway simulation?")
                heappop(heap)
                if time < self._now:
                    raise SimulationError("event heap yielded an event from the past")
                self._now = time
                self._fired += 1
                if is_event:
                    payload.callback()
                else:
                    payload()
                if observers:
                    # ``_now``, not ``time``: a process that ran ahead has
                    # already reported its earlier wake-ups.
                    now = self._now
                    for observer in observers:
                        observer(now)
        finally:
            self._running = False
            self._horizon, self._limit, self._target = saved
        if until is not None and self._now < until:
            self._now = until

    def run_until_complete(self, proc: "SimProcess", max_events: int | None = None) -> object:
        """Run events until ``proc`` finishes; return its result value.

        Raises :class:`SimulationError` if the heap drains with the process
        still alive (a deadlock in the modelled system).
        """
        heap = self._queue._heap
        heappop = heapq.heappop
        observers = self._observers
        limit = math.inf if max_events is None else self._fired + max_events
        saved = self._horizon, self._limit, self._target
        self._horizon = math.inf
        self._limit = limit
        self._target = proc
        try:
            while not proc.finished:
                if max_events is not None and self._fired >= limit:
                    raise SimulationError(f"exceeded max_events={max_events}; runaway simulation?")
                while heap:
                    time, _seq, payload = heap[0]
                    is_event = payload.__class__ is Event
                    if is_event and payload.cancelled:
                        heappop(heap)
                        continue
                    break
                else:
                    raise SimulationError(
                        f"event queue drained but process {proc.name!r} never finished (deadlock)"
                    )
                heappop(heap)
                if time < self._now:
                    raise SimulationError("event heap yielded an event from the past")
                self._now = time
                self._fired += 1
                if is_event:
                    payload.callback()
                else:
                    payload()
                if observers:
                    now = self._now
                    for observer in observers:
                        observer(now)
        finally:
            self._horizon, self._limit, self._target = saved
        if proc.error is not None:
            raise proc.error
        return proc.result
