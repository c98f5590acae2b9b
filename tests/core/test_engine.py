"""Unit tests for the DES engine: clock, ordering, run modes."""

import pytest

from repro.core import Deadlock, Engine, Event, SimulationError


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_timeout_advances_clock():
    eng = Engine()
    eng.timeout(3.5)
    eng.run()
    assert eng.now == 3.5


def test_events_fire_in_time_order():
    eng = Engine()
    order = []

    def proc(delay, tag):
        yield eng.timeout(delay)
        order.append(tag)

    eng.process(proc(2.0, "b"))
    eng.process(proc(1.0, "a"))
    eng.process(proc(3.0, "c"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    eng = Engine()
    order = []

    def proc(tag):
        yield eng.timeout(1.0)
        order.append(tag)

    for tag in ("x", "y", "z"):
        eng.process(proc(tag))
    eng.run()
    assert order == ["x", "y", "z"]


def test_priority_beats_sequence():
    eng = Engine()
    order = []
    ev_low = Event(eng)
    ev_hi = Event(eng)
    ev_low.callbacks.append(lambda e: order.append("low"))
    ev_hi.callbacks.append(lambda e: order.append("hi"))
    ev_low.succeed(priority=2)
    ev_hi.succeed(priority=0)
    eng.run()
    assert order == ["hi", "low"]


def test_run_until_time_stops_clock_exactly():
    eng = Engine()

    def ticker():
        while True:
            yield eng.timeout(1.0)

    eng.process(ticker())
    eng.run(until=4.5)
    assert eng.now == 4.5


def test_run_until_past_time_raises():
    eng = Engine()
    eng.run(until=2.0)
    with pytest.raises(ValueError):
        eng.run(until=1.0)


def test_run_until_event_returns_value():
    eng = Engine()

    def proc():
        yield eng.timeout(2.0)
        return 42

    p = eng.process(proc())
    assert eng.run(until=p) == 42
    assert eng.now == 2.0


def test_run_until_event_propagates_failure():
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)
        raise RuntimeError("boom")

    p = eng.process(proc())
    with pytest.raises(RuntimeError, match="boom"):
        eng.run(until=p)


def test_deadlock_detected():
    eng = Engine()

    def waiter():
        yield Event(eng)  # never triggered

    eng.process(waiter())
    with pytest.raises(Deadlock):
        eng.run()


def test_run_until_event_deadlock():
    eng = Engine()

    def waiter():
        yield Event(eng)

    p = eng.process(waiter())
    with pytest.raises(Deadlock):
        eng.run(until=p)


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_negative_schedule_delay_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.schedule(Event(eng), delay=-0.1)


def test_unawaited_failed_event_raises_at_step():
    eng = Engine()
    ev = Event(eng)
    ev.fail(RuntimeError("lost failure"))
    with pytest.raises(RuntimeError, match="lost failure"):
        eng.run()


def test_defused_failed_event_is_silent():
    eng = Engine()
    ev = Event(eng)
    ev.fail(RuntimeError("ignored"))
    ev.defused = True
    eng.run()  # no raise


def test_peek_reports_next_event_time():
    eng = Engine()
    assert eng.peek() == float("inf")
    eng.timeout(7.0)
    assert eng.peek() == 7.0


@pytest.mark.parametrize("backend", ["reference", "twotier"])
def test_step_on_empty_queue_is_a_typed_error(backend):
    eng = Engine(backend=backend)
    eng.timeout(2.5)
    eng.step()
    with pytest.raises(SimulationError, match=r"empty event queue at t=2\.5"):
        eng.step()
    eng.timeout(1.0)
    eng.step()
    with pytest.raises(SimulationError, match=r"empty event queue at t=3\.5"):
        eng.step()


def test_step_hook_sees_every_event():
    eng = Engine()
    seen = []
    eng.step_hook = lambda t, ev: seen.append(t)
    eng.timeout(1.0)
    eng.timeout(2.0)
    eng.run()
    assert seen == [1.0, 2.0]
