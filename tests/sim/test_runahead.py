"""Run-ahead: the run loops resume a process in place when its Timeout
wake-up is the strictly earliest pending event.

``step()`` never runs ahead, so a ``step()``-driven simulation is the
oracle: every run loop must produce the same firing log, the same
observer time sequence, the same final clock, the same fired-event count
and the same budget or deadlock error at the same count.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Completion, Simulator, Timeout

N_COMPLETIONS = 2
#: Repeated values make equal-time ties common; 0.1 and 0.3 add rounding.
DELAYS = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.3, 0.5, 1.0, 1.0, 2.0])

_OP = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("wait"), st.integers(0, N_COMPLETIONS - 1)),
    st.tuples(st.just("succeed"), st.integers(0, N_COMPLETIONS - 1)),
    st.tuples(st.just("join"), st.integers(0, 3)),
    st.tuples(st.just("interrupt"), st.integers(0, 3)),
    st.tuples(st.just("callback"), DELAYS, st.booleans()),
)
_PROGRAMS = st.lists(st.lists(_OP, max_size=8), min_size=1, max_size=4)
#: Top-level callbacks: (time, action, cancelled).
_CALLBACKS = st.lists(
    st.tuples(DELAYS, st.sampled_from(["log", "succeed0", "succeed1"]), st.booleans()),
    max_size=4,
)
_BUDGET = st.none() | st.integers(0, 40)


def _build(programs, callbacks):
    """A fresh simulator loaded with the scenario, plus its logs."""
    sim = Simulator()
    log: list = []
    observed: list = []
    sim.add_observer(observed.append)
    completions = [Completion(sim) for _ in range(N_COMPLETIONS)]
    procs: list = []

    def succeed(index, value):
        if not completions[index].triggered:
            completions[index].succeed(value)

    def program(me, ops):
        for step, op in enumerate(ops):
            log.append((sim.now, me, step))
            kind = op[0]
            if kind == "timeout":
                yield Timeout(op[1])
            elif kind == "wait":
                yield completions[op[1]]
            elif kind == "succeed":
                succeed(op[1], (me, step))
            elif kind == "join":
                yield procs[op[1] % len(procs)]
            elif kind == "interrupt":
                target = op[1] % len(procs)
                if target != me:
                    procs[target].interrupt()
            else:
                tag = (me, step)
                event = sim.schedule(op[1], lambda tag=tag: log.append((sim.now, "cb", tag)))
                if op[2]:
                    event.cancel()
        return me

    for me, ops in enumerate(programs):
        procs.append(sim.spawn(program(me, ops), name=f"p{me}"))
    for i, (time, action, cancelled) in enumerate(callbacks):
        if action == "log":
            cb = lambda i=i: log.append((sim.now, "top", i))
        else:
            cb = lambda i=i, c=int(action[-1]): succeed(c, ("top", i))
        event = sim.schedule_at(time, cb)
        if cancelled:
            event.cancel()
    return sim, procs, log, observed


def _step_run(sim, until, max_events):
    """``run(until, max_events)`` one ``step()`` at a time."""
    fired = 0
    while True:
        t = sim._queue.peek_time()
        if t is None or (until is not None and t > until):
            break
        if max_events is not None and fired >= max_events:
            return "budget"
        sim.step()
        fired += 1
    return "ok"


def _step_run_until_complete(sim, proc, max_events):
    """``run_until_complete(proc, max_events)`` one ``step()`` at a time."""
    fired = 0
    while not proc.finished:
        if max_events is not None and fired >= max_events:
            return "budget"
        if not sim.step():
            return "deadlock"
        fired += 1
    return "ok"


def _outcome(exc: SimulationError) -> str:
    return "budget" if "max_events" in str(exc) else "deadlock"


def _check(programs, callbacks, drive_ref, drive):
    ref, ref_procs, ref_log, ref_observed = _build(programs, callbacks)
    ref_outcome = drive_ref(ref, ref_procs)
    sim, procs, log, observed = _build(programs, callbacks)
    try:
        drive(sim, procs)
        outcome = "ok"
    except SimulationError as exc:
        outcome = _outcome(exc)
    assert outcome == ref_outcome
    assert log == ref_log
    assert observed == ref_observed
    assert sim.events_fired == ref.events_fired == len(ref_observed)
    return ref, sim, outcome


@settings(max_examples=300, deadline=None)
@given(programs=_PROGRAMS, callbacks=_CALLBACKS, max_events=_BUDGET)
def test_run_matches_step_oracle(programs, callbacks, max_events):
    ref, sim, _ = _check(
        programs, callbacks,
        lambda s, _p: _step_run(s, None, max_events),
        lambda s, _p: s.run(max_events=max_events),
    )
    assert sim.now == ref.now


@settings(max_examples=300, deadline=None)
@given(
    programs=_PROGRAMS,
    callbacks=_CALLBACKS,
    until=st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.3, 2.0, 3.5]),
    max_events=_BUDGET,
)
def test_run_until_matches_step_oracle(programs, callbacks, until, max_events):
    ref, sim, outcome = _check(
        programs, callbacks,
        lambda s, _p: _step_run(s, until, max_events),
        lambda s, _p: s.run(until=until, max_events=max_events),
    )
    # run() moves the clock to ``until`` unless it raised.
    assert sim.now == (max(ref.now, until) if outcome == "ok" else ref.now)


@settings(max_examples=300, deadline=None)
@given(
    programs=_PROGRAMS,
    callbacks=_CALLBACKS,
    target=st.integers(0, 3),
    max_events=_BUDGET,
)
# The awaited process is interrupted by another whose next wake-up would be
# the earliest event: run_until_complete must stop there, not run ahead.
@example(
    programs=[[("wait", 0)], [("interrupt", 0), ("timeout", 1.0), ("timeout", 1.0)]],
    callbacks=[],
    target=0,
    max_events=None,
)
def test_run_until_complete_matches_step_oracle(programs, callbacks, target, max_events):
    def pick(procs):
        return procs[target % len(procs)]

    ref, sim, _ = _check(
        programs, callbacks,
        lambda s, p: _step_run_until_complete(s, pick(p), max_events),
        lambda s, p: s.run_until_complete(pick(p), max_events=max_events),
    )
    assert sim.now == ref.now


def test_lone_process_skips_the_heap():
    """A process alone on the heap runs all its Timeouts in place, yet
    observers and the fired count still see every wake-up."""
    sim = Simulator()
    observed: list = []
    sim.add_observer(observed.append)

    def proc():
        for _ in range(3):
            yield Timeout(1.5)

    sim.spawn(proc())
    sim.run()
    assert sim._queue._seq == 1  # only the start went through the heap
    assert observed == [0.0, 1.5, 3.0, 4.5]
    assert sim.events_fired == 4
    assert sim.now == 4.5


def test_no_run_ahead_past_until():
    sim = Simulator()
    log: list = []

    def proc():
        while True:
            log.append(sim.now)
            yield Timeout(1.0)

    sim.spawn(proc())
    sim.run(until=2.5)
    assert log == [0.0, 1.0, 2.0]
    assert sim.now == 2.5
    assert sim.pending_events == 1  # the 3.0 wake-up waits on the heap
    sim.run(until=3.0)
    assert log == [0.0, 1.0, 2.0, 3.0]


def test_budget_error_at_the_same_count():
    sim = Simulator()

    def proc():
        while True:
            yield Timeout(1.0)

    sim.spawn(proc())
    with pytest.raises(SimulationError, match="max_events=5"):
        sim.run(max_events=5)
    assert sim.events_fired == 5
    assert sim.now == 4.0


def test_step_never_runs_ahead():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)
        yield Timeout(1.0)

    sim.spawn(proc())
    assert sim.step() and sim.now == 0.0
    assert sim.pending_events == 1
    assert sim.step() and sim.now == 1.0
    assert sim.pending_events == 1
