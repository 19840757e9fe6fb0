"""Generator-based cooperative processes for the DES kernel.

A process is a Python generator that ``yield``\\ s *wait conditions*:

``Timeout(dt)``
    Resume the generator ``dt`` simulated seconds later.

``Completion``
    A one-shot condition another actor triggers via
    :meth:`Completion.succeed`; any number of processes may wait on it.

``SimProcess``
    Yielding another process waits for it to finish; the joined process's
    result becomes the value of the ``yield`` expression.

The generator's ``return`` value becomes :attr:`SimProcess.result`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator


class Timeout:
    """Wait condition: resume after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        # One comparison on the hot path; NaN fails it too.  ``inf`` is a
        # valid delay (a process parked forever).
        if not delay >= 0:
            if delay != delay:
                raise SimulationError("Timeout delay must be a number, got nan")
            raise SimulationError(f"Timeout delay must be non-negative, got {delay}")
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay!r})"


class Completion:
    """A one-shot event that wakes every process waiting on it.

    The value passed to :meth:`succeed` is delivered as the result of the
    ``yield`` in each waiter.
    """

    __slots__ = ("sim", "_done", "_value", "_waiters")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._done = False
        self._value: object = None
        self._waiters: list["SimProcess"] = []

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def value(self) -> object:
        return self._value

    def succeed(self, value: object = None) -> None:
        """Trigger the completion, waking all waiters at the current time."""
        if self._done:
            raise SimulationError("Completion.succeed() called twice")
        self._done = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            # Wake at the current instant; determinism comes from heap order.
            self.sim.schedule(0.0, lambda p=proc: p._resume(value))

    def _add_waiter(self, proc: "SimProcess") -> None:
        if self._done:
            proc.sim.schedule(0.0, lambda: proc._resume(self._value))
        else:
            self._waiters.append(proc)


class SimProcess:
    """A running cooperative process.  Created via :meth:`Simulator.spawn`."""

    __slots__ = ("sim", "name", "_gen", "finished", "result", "error", "_joiners")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "process") -> None:
        self.sim = sim
        self.name = name
        self._gen = generator
        self.finished = False
        self.result: object = None
        self.error: BaseException | None = None
        self._joiners: list["SimProcess"] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self.finished else "running"
        return f"<SimProcess {self.name} {state}>"

    # ------------------------------------------------------------------
    # kernel-facing machinery
    # ------------------------------------------------------------------
    def _start(self) -> None:
        sim = self.sim
        sim._queue.push_callback(sim._now, self._resume)

    def _resume(self, value: object = None) -> None:
        if self.finished:
            return
        sim = self.sim
        gen = self._gen
        while True:
            try:
                condition = gen.send(value)
            except StopIteration as stop:
                self._finish(stop.value, None)
                return
            except Exception as exc:  # noqa: BLE001 - surfaced via .error
                self._finish(None, exc)
                return
            # Dispatch ordered by frequency: Timeout is the hot wait
            # condition (one per compute/stall slice), joins and
            # completions are rare.
            if type(condition) is not Timeout:
                self._wait_on(condition)
                return
            t = sim._now + condition.delay
            heap = sim._queue._heap
            # Run-ahead: a wake-up that would be the strictly earliest
            # event fires next anyway, so resume in place and skip the
            # heap round-trip.  Only inside a run loop's horizon and
            # max_events budget, and not once the process
            # run_until_complete waits for has finished.  An equal-time
            # entry was pushed earlier (lower seq) and fires first, so ties
            # go through the heap.
            if (
                (not heap or heap[0][0] > t)
                and t <= sim._horizon
                and sim._fired < sim._limit
                and (sim._target is None or not sim._target.finished)
            ):
                # Account the slice that just ended exactly as the run
                # loop would: observers see its time, then the clock moves
                # and the wake-up counts as a fired event.
                if sim._observers:
                    now = sim._now
                    for observer in sim._observers:
                        observer(now)
                sim._now = t
                sim._fired += 1
                value = None
                continue
            # The wake-up goes onto the heap as a bare callback:
            # Timeout.__init__ already rejected negative and NaN delays,
            # the wake-up is fired exactly once (never cancelled), and the
            # bound ``_resume`` itself is the callback — ``value`` defaults
            # to None.
            sim._queue.push_callback(t, self._resume)
            return

    def _wait_on(self, condition: object) -> None:
        if isinstance(condition, Timeout):
            self.sim.schedule(condition.delay, self._resume)
        elif isinstance(condition, Completion):
            condition._add_waiter(self)
        elif isinstance(condition, SimProcess):
            condition._add_joiner(self)
        else:
            self._finish(
                None,
                SimulationError(
                    f"process {self.name!r} yielded an unsupported condition: {condition!r}"
                ),
            )

    def _finish(self, result: object, error: BaseException | None) -> None:
        self.finished = True
        self.result = result
        self.error = error
        joiners, self._joiners = self._joiners, []
        for proc in joiners:
            self.sim.schedule(0.0, lambda p=proc: p._resume(self.result))

    def _add_joiner(self, proc: "SimProcess") -> None:
        if self.finished:
            self.sim.schedule(0.0, lambda: proc._resume(self.result))
        else:
            self._joiners.append(proc)

    # ------------------------------------------------------------------
    # user API
    # ------------------------------------------------------------------
    def interrupt(self) -> None:
        """Terminate the process; it will never be resumed again."""
        if not self.finished:
            self._gen.close()
            self._finish(None, None)
