"""Unit tests for the discrete-event simulator."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator, Timeout


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_advances_clock(sim):
    fired = []
    sim.schedule(2.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.5]
    assert sim.now == 2.5


def test_schedule_at_absolute_time(sim):
    fired = []
    sim.schedule_at(4.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [4.0]


def test_schedule_negative_delay_raises(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_raises(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_schedule_nan_delay_raises(sim):
    with pytest.raises(SimulationError, match="NaN"):
        sim.schedule(float("nan"), lambda: None)
    assert sim.pending_events == 0


def test_schedule_at_nan_time_raises(sim):
    with pytest.raises(SimulationError, match="NaN"):
        sim.schedule_at(float("nan"), lambda: None)
    assert sim.pending_events == 0


def test_schedule_accepts_inf(sim):
    sim.schedule(float("inf"), lambda: None)
    sim.schedule_at(float("inf"), lambda: None)
    sim.run(until=1.0)
    assert sim.pending_events == 2


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0


def test_run_until_advances_clock_even_without_events(sim):
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_events_scheduled_during_run_fire(sim):
    fired = []

    def outer():
        sim.schedule(1.0, lambda: fired.append("inner"))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["inner"]
    assert sim.now == 2.0


def test_max_events_guard(sim):
    def reschedule():
        sim.schedule(1.0, reschedule)

    sim.schedule(1.0, reschedule)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=10)


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False


def test_run_until_complete_returns_process_result(sim):
    def proc():
        yield Timeout(3.0)
        return "done"

    p = sim.spawn(proc())
    assert sim.run_until_complete(p) == "done"
    assert sim.now == 3.0


def test_run_until_complete_detects_deadlock(sim):
    from repro.sim import Completion

    cond = Completion(sim)

    def proc():
        yield cond  # never triggered

    p = sim.spawn(proc())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(p)


def test_run_until_complete_propagates_errors(sim):
    def proc():
        yield Timeout(1.0)
        raise ValueError("boom")

    p = sim.spawn(proc())
    with pytest.raises(ValueError, match="boom"):
        sim.run_until_complete(p)


def test_deterministic_ordering_of_simultaneous_events(sim):
    order = []
    for i in range(5):
        sim.schedule(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]
