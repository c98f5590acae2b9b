"""Property-based tests for the simulation kernel and machine primitives."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Engine, Resource
from repro.machine import SharedServer


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_timeouts_fire_in_sorted_order(delays):
    eng = Engine()
    fired = []

    def proc(d):
        yield eng.timeout(d)
        fired.append(d)

    for d in delays:
        eng.process(proc(d))
    eng.run()
    assert fired == sorted(delays, key=lambda d: d)
    assert eng.now == max(delays)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),  # arrival
            st.floats(min_value=0.01, max_value=10.0),  # hold time
        ),
        min_size=1,
        max_size=20,
    ),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=80, deadline=None)
def test_resource_conservation_and_capacity(jobs, capacity):
    """At no instant do more than `capacity` holders exist, every job
    eventually runs, and FIFO order holds among queued jobs."""
    eng = Engine()
    res = Resource(eng, capacity=capacity)
    granted = []

    def user(idx, arrival, hold):
        yield eng.timeout(arrival)
        with res.request() as req:
            yield req
            assert res.count <= capacity
            granted.append(idx)
            yield eng.timeout(hold)

    for i, (arrival, hold) in enumerate(jobs):
        eng.process(user(i, arrival, hold))
    eng.run()
    assert sorted(granted) == list(range(len(jobs)))
    assert res.count == 0 and res.queued == 0


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=50.0),  # start
            st.floats(min_value=1.0, max_value=10_000.0),  # bytes
        ),
        min_size=1,
        max_size=15,
    ),
    st.floats(min_value=10.0, max_value=1000.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=80, deadline=None)
def test_shared_server_conserves_bytes_and_bounds_time(jobs, bandwidth, thrash):
    eng = Engine()
    srv = SharedServer(eng, bandwidth=bandwidth, thrash=thrash)
    finish = {}

    def writer(idx, start, nbytes):
        yield eng.timeout(start)
        job = srv.transfer(nbytes)
        yield job.done
        finish[idx] = eng.now

    for i, (start, nbytes) in enumerate(jobs):
        eng.process(writer(i, start, nbytes))
    eng.run()
    assert len(finish) == len(jobs)
    total_bytes = sum(b for _, b in jobs)
    assert abs(srv.bytes_completed - total_bytes) < 1e-6 * max(1.0, total_bytes)
    last_start = max(s for s, _ in jobs)
    # lower bound: even at full bandwidth with no sharing, the last byte
    # cannot land before total_bytes/bandwidth after time zero.
    assert max(finish.values()) >= total_bytes / bandwidth - 1e-6
    # upper bound: worst-case thrash with all jobs concurrent
    k = len(jobs)
    worst_rate = bandwidth / (k * (1 + thrash * (k - 1)))
    assert max(finish.values()) <= last_start + total_bytes / worst_rate + 1e-6


@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_single_stream_time_additivity(n_chunks, sizes):
    """Serial transfers on an idle server take exactly the sum of their
    individual times (no hidden state between jobs)."""
    eng = Engine()
    srv = SharedServer(eng, bandwidth=100.0, thrash=0.7)

    def serial():
        for s in sizes:
            job = srv.transfer(float(s))
            yield job.done

    p = eng.process(serial())
    eng.run(until=p)
    assert eng.now == sum(sizes) / 100.0 or abs(eng.now - sum(sizes) / 100.0) < 1e-9
