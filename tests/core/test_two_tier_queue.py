"""The two-tier event queue: ordering and the delay pool.

The fast lane must be invisible: everything here asserts that firing
order under the deque+heap queue is exactly the ``(time, priority, seq)``
order of the heap-only kernel, and that the pooled ``engine.delay()``
events recycle without changing behaviour.
"""

import pytest

from repro.core import Engine, Event, NegativeDelay, SimulationError
from repro.core.engine import LOW, URGENT


def _scenario(eng: Engine):
    """A mixed workload touching every scheduling path; returns its log."""
    log = []

    def worker(tag, naps):
        for nap in naps:
            if nap:
                yield eng.timeout(nap)
            else:
                ev = Event(eng)
                ev.succeed(None)
                yield ev
            log.append((tag, eng.now))

    def urgent_poker():
        yield eng.timeout(0.5)
        ev = Event(eng)
        ev.succeed(None, priority=URGENT)
        yield ev
        log.append(("urgent", eng.now))
        low = Event(eng)
        low.succeed(None, priority=LOW)
        yield low
        log.append(("low", eng.now))

    eng.process(worker("a", [0, 0, 1.0, 0, 0.5]))
    eng.process(worker("b", [0.5, 0, 0, 1.0]))
    eng.process(worker("c", [0, 1.5, 0]))
    eng.process(urgent_poker())
    eng.run()
    return log


def test_firing_order_identical_to_heap_only_kernel():
    assert _scenario(Engine(backend="twotier")) == _scenario(
        Engine(backend="reference")
    )


def test_urgent_trigger_fires_before_earlier_normal_trigger():
    eng = Engine()
    order = []
    normal = Event(eng)
    normal.callbacks.append(lambda _ev: order.append("normal"))
    urgent = Event(eng)
    urgent.callbacks.append(lambda _ev: order.append("urgent"))
    normal.succeed(None)  # scheduled first (lane)
    urgent.succeed(None, priority=URGENT)  # scheduled second (heap)
    eng.run()
    assert order == ["urgent", "normal"]


def test_heap_normal_event_with_lower_seq_beats_lane_entry():
    # Two timeouts land at t=1; the first one's callback triggers a
    # delay-0 event.  The second timeout has the lower sequence number,
    # so it must fire before the freshly-appended lane entry.
    eng = Engine()
    order = []
    t1 = eng.timeout(1.0)
    t2 = eng.timeout(1.0)
    c = Event(eng)

    def fire_c(_ev):
        order.append("t1")
        c.succeed(None)

    t1.callbacks.append(fire_c)
    t2.callbacks.append(lambda _ev: order.append("t2"))
    c.callbacks.append(lambda _ev: order.append("c"))
    eng.run()
    assert order == ["t1", "t2", "c"]


def test_peek_and_queued_consider_both_tiers():
    eng = Engine()
    assert eng.peek() == float("inf")
    eng.timeout(5.0)
    assert eng.peek() == 5.0
    Event(eng).succeed(None)  # lane entry at t=0
    assert eng.peek() == 0.0
    assert eng.queued == 2
    eng.step()
    assert eng.queued == 1
    assert eng.peek() == 5.0


def test_delay_pool_recycles_objects():
    eng = Engine()
    ids = []

    def proc():
        for _ in range(3):
            d = eng.delay(0.1)
            ids.append(id(d))
            yield d

    eng.process(proc())
    eng.run()
    assert eng._delay_pool  # something was recycled
    # the first delay is back in the pool by the time the third is made
    assert ids[2] == ids[0]


def test_delay_pool_disabled_under_step_hook():
    # A step hook may retain event references, so recycling must stop.
    eng = Engine()
    eng.step_hook = lambda _t, _ev: None

    def proc():
        yield eng.delay(0.1)
        yield eng.delay(0.1)

    eng.process(proc())
    eng.run()
    assert not eng._delay_pool


def test_delay_event_carries_value():
    eng = Engine()
    got = []

    def proc():
        got.append((yield eng.delay(0.25, value="tick")))

    eng.process(proc())
    eng.run()
    assert got == ["tick"]
    assert eng.now == 0.25


@pytest.mark.parametrize(
    "schedule",
    [
        lambda eng: eng.schedule(Event(eng), delay=-0.1),
        lambda eng: eng.timeout(-1.0),
        lambda eng: eng.delay(-1e-9),
    ],
)
def test_negative_delays_raise_shared_error(schedule):
    eng = Engine()
    with pytest.raises(NegativeDelay, match="cannot schedule into the past"):
        schedule(eng)
    # back-compat: NegativeDelay is both a ValueError and a kernel error
    with pytest.raises(ValueError):
        schedule(eng)
    with pytest.raises(SimulationError):
        schedule(eng)
