"""Unit tests for Resource."""

import pytest

from repro.core import Engine, Resource, SimulationError


def test_resource_grants_up_to_capacity_immediately():
    eng = Engine()
    res = Resource(eng, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered and not r3.triggered
    assert res.count == 2 and res.queued == 1
    eng.run(until=0.0)


def test_resource_fifo_order():
    eng = Engine()
    res = Resource(eng, capacity=1)
    order = []

    def user(tag, hold):
        with res.request() as req:
            yield req
            order.append((tag, eng.now))
            yield eng.timeout(hold)

    eng.process(user("a", 1.0))
    eng.process(user("b", 1.0))
    eng.process(user("c", 1.0))
    eng.run()
    assert order == [("a", 0.0), ("b", 1.0), ("c", 2.0)]


def test_release_wakes_next_waiter():
    eng = Engine()
    res = Resource(eng, capacity=1)
    r1 = res.request()
    r2 = res.request()
    assert not r2.triggered
    res.release(r1)
    assert r2.triggered


def test_release_unheld_request_raises():
    eng = Engine()
    res = Resource(eng, capacity=1, name="disk")
    res.request()
    stranger = res.request()  # queued, not granted
    with pytest.raises(SimulationError):
        res.release(stranger)


def test_cancel_queued_request():
    eng = Engine()
    res = Resource(eng, capacity=1)
    r1 = res.request()
    r2 = res.request()
    r2.cancel()
    res.release(r1)
    assert res.count == 0 and res.queued == 0


def test_cancel_granted_request_releases():
    eng = Engine()
    res = Resource(eng, capacity=1)
    r1 = res.request()
    r2 = res.request()
    r1.cancel()
    assert r2.triggered


def test_context_manager_always_releases():
    eng = Engine()
    res = Resource(eng, capacity=1)

    def user():
        with res.request() as req:
            yield req
            yield eng.timeout(1.0)

    eng.process(user())
    eng.run()
    assert res.count == 0


def test_capacity_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Resource(eng, capacity=0)


def test_n_writers_single_server_total_time():
    """The contention mechanism behind Coord_NB: N simultaneous writers to
    one server take N service times end to end."""
    eng = Engine()
    disk = Resource(eng, capacity=1)
    finish = []

    def writer():
        with disk.request() as req:
            yield req
            yield eng.timeout(2.0)
        finish.append(eng.now)

    for _ in range(8):
        eng.process(writer())
    eng.run()
    assert finish == [2.0 * (i + 1) for i in range(8)]
