"""Collective operations: correctness on every rank, various sizes."""

import operator

import numpy as np
import pytest

from repro.net import barrier, bcast, gather, reduce


def run_spmd(world, n, body):
    """Run `body(comms[r], r, results)` as one process per rank."""
    eng, cluster, transport, comms = world(n=n)
    results = {}

    for r in range(n):
        eng.process(body(comms[r], r, results))
    eng.run()
    return results


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
def test_bcast_all_ranks_receive(world, n):
    def body(comm, rank, results):
        value = "payload" if rank == 2 % n else None
        got = yield from bcast(comm, value, root=2 % n)
        results[rank] = got

    results = run_spmd(world, n, body)
    assert all(v == "payload" for v in results.values())
    assert len(results) == n


@pytest.mark.parametrize("n", [2, 4, 8])
def test_bcast_numpy_array(world, n):
    arr = np.arange(100, dtype=np.float64)

    def body(comm, rank, results):
        got = yield from bcast(comm, arr if rank == 0 else None, root=0)
        results[rank] = got

    results = run_spmd(world, n, body)
    for v in results.values():
        np.testing.assert_array_equal(v, arr)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_reduce_sum(world, n):
    def body(comm, rank, results):
        got = yield from reduce(comm, rank + 1, operator.add, root=0)
        results[rank] = got

    results = run_spmd(world, n, body)
    assert results[0] == n * (n + 1) // 2
    assert all(results[r] is None for r in range(1, n))


@pytest.mark.parametrize("root", [0, 1, 3])
def test_reduce_nonzero_root(world, root):
    n = 4

    def body(comm, rank, results):
        got = yield from reduce(comm, 2**rank, operator.add, root=root)
        results[rank] = got

    results = run_spmd(world, n, body)
    assert results[root] == 15
    assert all(results[r] is None for r in range(n) if r != root)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_gather_collects_rank_ordered(world, n):
    def body(comm, rank, results):
        got = yield from gather(comm, f"r{rank}", root=0)
        results[rank] = got

    results = run_spmd(world, n, body)
    assert results[0] == [f"r{i}" for i in range(n)]
    assert all(results[r] is None for r in range(1, n))


@pytest.mark.parametrize("root", [0, 1, 3])
def test_gather_nonzero_root(world, root):
    n = 4

    def body(comm, rank, results):
        got = yield from gather(comm, rank * rank, root=root)
        results[rank] = got

    results = run_spmd(world, n, body)
    assert results[root] == [r * r for r in range(n)]
    assert all(results[r] is None for r in range(n) if r != root)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_reduce_folds_in_tree_order(world, n):
    """The binomial tree folds the root's subtrees in rank order relative
    to the root, so a non-commutative (or floating-point) reduction gives
    the same answer on every run."""
    root = n // 2

    def body(comm, rank, results):
        got = yield from reduce(comm, [rank], operator.add, root=root)
        results[rank] = got

    results = run_spmd(world, n, body)
    assert results[root] == [(root + i) % n for i in range(n)]


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_barrier_synchronises(world, n):
    eng, cluster, transport, comms = world(n=n)
    exit_times = {}

    def body(rank):
        yield eng.timeout(rank * 1.0)  # stagger arrivals
        yield from barrier(comms[rank])
        exit_times[rank] = eng.now

    for r in range(n):
        eng.process(body(r))
    eng.run()
    # nobody leaves before the last arrival
    assert all(t >= (n - 1) * 1.0 for t in exit_times.values())


def test_back_to_back_collectives_do_not_cross_talk(world):
    n = 4

    def body(comm, rank, results):
        a = yield from bcast(comm, "A" if rank == 0 else None, root=0)
        b = yield from bcast(comm, "B" if rank == 1 else None, root=1)
        total = yield from reduce(comm, rank, operator.add)
        s = yield from bcast(comm, total)
        results[rank] = (a, b, s)

    results = run_spmd(world, n, body)
    assert all(v == ("A", "B", 6) for v in results.values())


def test_coll_counter_advances_identically(world):
    n = 4
    eng, cluster, transport, comms = world(n=n)

    def body(rank):
        yield from barrier(comms[rank])
        yield from bcast(comms[rank], rank, root=0)

    for r in range(n):
        eng.process(body(r))
    eng.run()
    assert len({c.coll_counter for c in comms}) == 1
    assert comms[0].coll_counter == 2
