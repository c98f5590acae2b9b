"""Property-based tests: network FIFO/delivery invariants and page tracking."""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chklib.incremental import PAGE_SIZE, IncrementalState, dirty_pages, page_hashes
from repro.chklib.state import Snapshot
from repro.core import Engine
from repro.machine import Cluster, MachineParams
from repro.net import Comm, Transport


@st.composite
def traffic(draw):
    """A random SPMD-ish traffic schedule: (sender, receiver, delay)."""
    n = draw(st.integers(2, 4))
    events = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(min_value=0.0, max_value=0.5),
            ),
            min_size=1,
            max_size=30,
        )
    )
    events = [(s, r, d) for s, r, d in events if s != r]
    return n, events


@given(traffic())
@settings(max_examples=60, deadline=None)
def test_per_channel_fifo_under_random_traffic(case):
    """Whatever the interleaving, payload sequence numbers arrive in order
    per channel and nothing is lost or duplicated."""
    n, events = case
    eng = Engine()
    cluster = Cluster(eng, MachineParams(n_nodes=n))
    transport = Transport(cluster)
    comms = [Comm(transport, r, n) for r in range(n)]
    sent_per_channel = {}
    for s, r, _ in events:
        sent_per_channel[(s, r)] = sent_per_channel.get((s, r), 0) + 1
    received = {key: [] for key in sent_per_channel}

    def sender(rank):
        mine = [(r, d) for s, r, d in events if s == rank]
        for dst, delay in mine:
            if delay:
                yield eng.timeout(delay)
            yield from comms[rank].send(dst, None)

    def receiver(rank):
        expect = sum(1 for s, r, _ in events if r == rank)
        for _ in range(expect):
            msg = yield comms[rank].recv()
            received[(msg.src, rank)].append(msg.seq)

    for rank in range(n):
        eng.process(sender(rank))
        eng.process(receiver(rank))
    eng.run()
    for channel, count in sent_per_channel.items():
        assert received[channel] == list(range(1, count + 1))


@given(
    st.lists(st.binary(min_size=0, max_size=3 * PAGE_SIZE), min_size=1, max_size=6)
)
@settings(max_examples=60, deadline=None)
def test_page_hash_dirty_count_bounds(blobs):
    """Dirty pages between consecutive blobs never exceed the page count of
    the larger blob, and identical consecutive blobs are zero-dirty."""
    prev = None
    for blob in blobs:
        hashes = page_hashes(blob)
        if prev is not None:
            d = dirty_pages(prev, hashes)
            assert 0 <= d <= max(len(prev), len(hashes))
        assert dirty_pages(hashes, hashes) == 0
        prev = hashes


@given(
    st.integers(min_value=2, max_value=5),
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_incremental_state_full_cadence(full_every, dirt):
    """A full checkpoint appears at least every `full_every` plans, and
    increments never report more bytes than the blob."""
    inc = IncrementalState(full_every=full_every)
    buf = bytearray(PAGE_SIZE * 8)
    since_full = 0
    for offset in dirt:
        buf[offset * 97 % len(buf)] ^= 0xFF
        blob = bytes(buf)
        is_full, nbytes, hashes = inc.plan(blob)
        inc.advance(is_full, hashes)
        if is_full:
            assert nbytes == len(blob)
            since_full = 0
        else:
            since_full += 1
            assert nbytes <= len(blob)
        assert since_full < full_every


@given(
    st.dictionaries(
        st.sampled_from(["iter", "grid", "vec", "flag", "label"]),
        st.one_of(
            st.integers(-10**9, 10**9),
            st.floats(allow_nan=False, allow_infinity=False),
            st.booleans(),
            st.text(max_size=20),
        ),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=100, deadline=None)
def test_snapshot_roundtrip_arbitrary_states(state):
    snap = Snapshot.capture(state)
    restored = snap.restore()
    assert restored == state
    assert restored is not state
    assert snap.nbytes == len(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))


@given(st.integers(min_value=1, max_value=200), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_snapshot_numpy_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    state = {"a": rng.random(n), "b": rng.integers(0, 10, size=n)}
    restored = Snapshot.capture(state).restore()
    np.testing.assert_array_equal(restored["a"], state["a"])
    np.testing.assert_array_equal(restored["b"], state["b"])
