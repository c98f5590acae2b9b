"""Collectives beyond the paper's 8 ranks: odd sizes and p > 64.

The tag discipline reserves a per-collective slot of ``_stride(comm)``
wire tags: the next power of two >= p, floored at 64, so a slot has room
for one sub-tag per peer at any size. These tests pin the derivation,
round counts at awkward sizes, gathers beyond 64 ranks, disjoint slots
and cross-rank ``coll_counter`` agreement.
"""

import math
import operator

import pytest

from repro.net import barrier, bcast, gather, reduce
from repro.net.collectives import COLL_TAG_BASE, _SLOT_STRIDE, _stride


def run_spmd(world, n, body):
    eng, cluster, transport, comms = world(n=n)
    results = {}
    for r in range(n):
        eng.process(body(comms[r], r, results))
    eng.run()
    return comms, results


class _FakeComm:
    def __init__(self, size):
        self.size = size


@pytest.mark.parametrize(
    "p,expect",
    [(1, 64), (8, 64), (64, 64), (65, 128), (96, 128), (128, 128), (129, 256)],
)
def test_stride_is_next_power_of_two_floored_at_64(p, expect):
    assert _stride(_FakeComm(p)) == expect


def test_stride_small_communicators_keep_legacy_value():
    # every p <= 64 derives the exact tags it always did (byte identity
    # of the 8-rank tables depends on this).
    for p in range(1, 65):
        assert _stride(_FakeComm(p)) == _SLOT_STRIDE


@pytest.mark.parametrize("n", [3, 5, 7, 96, 128])
def test_reduce_and_bcast_at_odd_and_large_sizes(world, n):
    def body(comm, rank, results):
        total = yield from reduce(comm, rank + 1, operator.add, root=0)
        got = yield from bcast(comm, total, root=0)
        results[rank] = got

    _, results = run_spmd(world, n, body)
    assert all(v == n * (n + 1) // 2 for v in results.values())
    assert len(results) == n


@pytest.mark.parametrize("n", [3, 5, 7, 96, 128])
def test_gather_at_odd_and_large_sizes(world, n):
    """Every rank's value reaches the root in rank order, in one slot."""

    def body(comm, rank, results):
        results[rank] = yield from gather(comm, rank * 1000, root=0)

    comms, results = run_spmd(world, n, body)
    assert results[0] == [src * 1000 for src in range(n)]
    assert all(results[r] is None for r in range(1, n))
    assert {c.coll_counter for c in comms} == {1}


@pytest.mark.parametrize("n", [3, 5, 7, 96, 128])
def test_barrier_round_counts(world, n):
    """Dissemination barrier: exactly ceil(log2 p) sends per rank."""
    sends = {r: 0 for r in range(n)}

    def body(comm, rank, results):
        original = comm.send

        def counting_send(*args, **kw):
            sends[rank] += 1
            return original(*args, **kw)

        comm.send = counting_send
        yield from barrier(comm)
        results[rank] = True

    _, results = run_spmd(world, n, body)
    assert len(results) == n
    expected = math.ceil(math.log2(n))
    assert all(count == expected for count in sends.values())


@pytest.mark.parametrize("n", [3, 5, 7, 96, 128])
def test_coll_counter_agrees_across_ranks(world, n):
    """Mixed collectives advance every rank's slot counter identically
    (the counter is checkpointed state; divergence would desynchronise
    tag derivation after a restart)."""

    def body(comm, rank, results):
        yield from barrier(comm)
        yield from reduce(comm, rank, operator.add, root=0)
        top = yield from reduce(comm, rank, max, root=0)
        got = yield from bcast(comm, top, root=0)
        results[rank] = got

    comms, results = run_spmd(world, n, body)
    assert all(v == n - 1 for v in results.values())
    counters = {c.coll_counter for c in comms}
    assert len(counters) == 1
    # barrier + reduce + reduce + bcast = 4 slots
    assert counters.pop() == 4


@pytest.mark.parametrize("n", [96, 128])
def test_large_slot_tags_stay_disjoint(world, n):
    """Consecutive collective slots occupy disjoint tag ranges even when
    the stride has grown beyond 64."""
    stride = _stride(_FakeComm(n))
    seen = {}

    def body(comm, rank, results):
        original = comm.send

        def tagged_send(dst, payload, tag=0, **kw):
            slot, offset = divmod(tag - COLL_TAG_BASE, stride)
            seen.setdefault(slot, set()).add(offset)
            return original(dst, payload, tag=tag, **kw)

        comm.send = tagged_send
        yield from barrier(comm)
        results[rank] = yield from bcast(comm, rank, root=0)

    run_spmd(world, n, body)
    # two slots consumed: the barrier's offsets are its log2 rounds, the
    # broadcast's the first sub-tag of the next slot, a stride further.
    assert set(seen) == {0, 1}
    assert seen[0] == set(range(math.ceil(math.log2(n))))
    assert seen[1] == {0}
