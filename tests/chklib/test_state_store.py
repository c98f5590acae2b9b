"""Unit tests for Snapshot and CheckpointStore."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chklib import CheckpointRecord, CheckpointStore, Snapshot
from repro.core.errors import InvariantViolation, SizeOnlyError
from repro.net import Message


def make_record(rank, index, state=None, **kw):
    snap = Snapshot.capture(state if state is not None else {"iter": index})
    return CheckpointRecord(
        rank=rank,
        index=index,
        snapshot=snap,
        comm_meta={"sent": {}, "consumed": {}, "coll_counter": 0},
        taken_at=float(index),
        **kw,
    )


class TestSnapshot:
    def test_roundtrip_isolates_mutation(self):
        state = {"iter": 3, "grid": np.arange(10.0)}
        snap = Snapshot.capture(state)
        state["grid"][0] = 999.0
        state["iter"] = 4
        restored = snap.restore()
        assert restored["iter"] == 3
        assert restored["grid"][0] == 0.0

    def test_restore_twice_independent(self):
        snap = Snapshot.capture({"a": np.zeros(4)})
        r1, r2 = snap.restore(), snap.restore()
        r1["a"][0] = 5
        assert r2["a"][0] == 0

    def test_nbytes_tracks_array_size(self):
        small = Snapshot.capture({"x": np.zeros(10)})
        big = Snapshot.capture({"x": np.zeros(10_000)})
        assert big.nbytes - small.nbytes > 9000 * 8 * 0.99

    def test_rng_in_state_roundtrips(self):
        rng = np.random.default_rng(42)
        rng.random(5)
        snap = Snapshot.capture({"rng": rng})
        ahead = rng.random(3)
        replay = snap.restore()["rng"].random(3)
        np.testing.assert_array_equal(ahead, replay)

    def test_non_dict_rejected(self):
        with pytest.raises(TypeError):
            Snapshot.capture([1, 2, 3])

    def test_size_only_keeps_size_and_crc_and_refuses_bytes(self):
        import zlib

        snap = Snapshot.capture({"x": np.zeros(100)})
        nbytes, crc = snap.nbytes, zlib.crc32(snap.blob)
        snap.drop_bytes()
        assert (snap.nbytes, snap.checksum) == (nbytes, crc)
        with pytest.raises(SizeOnlyError, match="size, not its bytes"):
            snap.restore()
        with pytest.raises(SizeOnlyError):
            snap.blob


class TestCheckpointRecord:
    def test_byte_accounting_with_pad(self):
        rec = make_record(0, 1, {"x": np.zeros(100)}, pad_bytes=1000)
        assert rec.state_bytes == rec.snapshot.nbytes + 1000
        assert rec.total_bytes == rec.state_bytes

    def test_integrity_needs_no_bytes(self):
        """The CRC is taken once at capture: a size-only record validates,
        and a corrupted one is still caught."""
        rec = make_record(0, 1, {"x": np.zeros(100)})
        rec.snapshot.drop_bytes()
        assert rec.verify_integrity()
        rec.mark_corrupted()
        assert not rec.verify_integrity()

    def test_channel_and_log_bytes(self):
        rec = make_record(0, 1)
        m = Message(src=1, dst=0, tag=0, payload=np.zeros(10), seq=1)
        m.finalize_size()
        rec.channel_msgs.append(m)
        rec.log_annex.append(m)
        assert rec.channel_bytes == m.size
        assert rec.log_bytes == m.size
        assert rec.total_bytes == rec.state_bytes + 2 * m.size


class TestCheckpointStore:
    def test_add_get_chain(self):
        store = CheckpointStore(2)
        store.add(make_record(0, 1))
        store.add(make_record(0, 2))
        store.add(make_record(1, 1))
        assert [r.index for r in store.chain(0)] == [1, 2]
        assert store.get(1, 1).rank == 1
        assert store.count() == 3
        assert store.count(rank=0) == 2

    def test_duplicate_index_rejected(self):
        store = CheckpointStore(1)
        store.add(make_record(0, 1))
        with pytest.raises(ValueError):
            store.add(make_record(0, 1))

    def test_zero_index_rejected(self):
        store = CheckpointStore(1)
        with pytest.raises(ValueError):
            store.add(make_record(0, 0))

    def test_commit_of_unstored_record_is_typed(self):
        # the store holds a record only once its write ended; committing
        # one it never got names the rank and index
        store = CheckpointStore(2)
        store.add(make_record(0, 1))
        with pytest.raises(InvariantViolation) as err:
            store.commit(1, 1)
        assert err.value.context == {"rank": 1, "index": 1}
        store.commit(0, 1)
        assert store.get(0, 1).committed

    def test_latest_index(self):
        store = CheckpointStore(2)
        assert store.latest_index(0) == 0
        store.add(make_record(0, 3))
        assert store.latest_index(0) == 3

    def test_discard_frees_bytes(self):
        store = CheckpointStore(1)
        rec = make_record(0, 1, {"x": np.zeros(1000)})
        store.add(rec)
        freed = store.discard(0, 1)
        assert freed == rec.total_bytes
        assert store.count() == 0

    def test_discard_older_than(self):
        store = CheckpointStore(1)
        for idx in (1, 2, 3):
            store.add(make_record(0, idx))
        store.discard_older_than(0, 3)
        assert [r.index for r in store.chain(0)] == [3]

    def test_peaks_track_maximum(self):
        store = CheckpointStore(1)
        store.add(make_record(0, 1, {"x": np.zeros(100)}))
        store.add(make_record(0, 2, {"x": np.zeros(100)}))
        peak = store.peak_bytes
        store.discard(0, 1)
        store.add(make_record(0, 3, {"x": np.zeros(10)}))
        assert store.peak_bytes == peak
        assert store.peak_checkpoints == 2

    def test_find_logged(self):
        from repro.net import Message

        store = CheckpointStore(2)
        rec = make_record(0, 1)
        msg = Message(src=0, dst=1, tag=0, payload="m", seq=7)
        msg.finalize_size()
        rec.log_annex.append(msg)
        store.add(rec)
        assert store.find_logged(0, 1, 7) is msg
        assert store.find_logged(0, 1, 8) is None
        assert store.find_logged(1, 0, 7) is None


# -- running occupancy == from-scratch recomputation --------------------------

_N_RANKS = 3

_store_op = st.one_of(
    # add: (rank, pad bytes, pre-add channel msgs, pre-add log msgs)
    st.tuples(
        st.just("add"),
        st.integers(0, _N_RANKS - 1),
        st.integers(0, 4096),
        st.lists(st.integers(1, 512), max_size=3),
        st.lists(st.integers(1, 512), max_size=3),
    ),
    # channel message recorded into the k-th record ever created (stored,
    # not stored yet — or discarded meanwhile)
    st.tuples(st.just("chan"), st.integers(0, 30), st.integers(1, 2048)),
    st.tuples(st.just("store-pending"), st.integers(0, 30)),
    st.tuples(st.just("discard"), st.integers(0, _N_RANKS - 1), st.integers(0, 12)),
    st.tuples(st.just("older"), st.integers(0, _N_RANKS - 1), st.integers(0, 12)),
)


def _msg(size):
    return Message(src=1, dst=0, tag=0, payload=None, seq=1, size=size)


@given(st.lists(_store_op, max_size=60))
@settings(max_examples=200, deadline=None)
def test_running_occupancy_matches_recomputation(ops):
    """``add`` samples the peaks from running count/bytes; after any mix of
    adds, discards and post-add channel recording they must equal what
    ``count()``/``total_bytes()`` recompute from the chains — at every
    step, so both peaks equal the peaks of the recomputed series."""
    store = CheckpointStore(_N_RANKS)
    created = []  # every record ever built, stored or not
    pending = []  # built, written later (a coordinated round in flight)
    next_index = {r: 1 for r in range(_N_RANKS)}
    ref_peak_bytes = ref_peak_count = 0

    def build(rank, pad, chan, log):
        rec = make_record(rank, next_index[rank], pad_bytes=pad)
        next_index[rank] += 1
        rec.channel_msgs.extend(_msg(s) for s in chan)
        rec.log_annex.extend(_msg(s) for s in log)
        created.append(rec)
        return rec

    for op in ops:
        added = False
        if op[0] == "add":
            _, rank, pad, chan, log = op
            rec = build(rank, pad, chan, log)
            if pad % 3 == 0:
                pending.append(rec)  # cut now, stored by a later op
            else:
                store.add(rec)
                added = True
        elif op[0] == "chan" and created:
            store.record_channel_msg(created[op[1] % len(created)], _msg(op[2]))
        elif op[0] == "store-pending" and pending:
            rec = pending.pop(op[1] % len(pending))
            if rec.index > store.latest_index(rec.rank):
                store.add(rec)
                added = True
        elif op[0] == "discard":
            _, rank, index = op
            if index in {r.index for r in store.chain(rank)}:
                store.discard(rank, index)
        elif op[0] == "older":
            store.discard_older_than(op[1], op[2])
        assert store._count == store.count()
        assert store._bytes == store.total_bytes()
        if added:  # the peaks are sampled where they always were: at add()
            ref_peak_bytes = max(ref_peak_bytes, store.total_bytes())
            ref_peak_count = max(ref_peak_count, store.count())
        assert store.peak_bytes == ref_peak_bytes
        assert store.peak_checkpoints == ref_peak_count
