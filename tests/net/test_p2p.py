"""Point-to-point semantics: eager sends, FIFO channels, matching, timing."""

import numpy as np
import pytest

from repro.core import SimulationError
from repro.net import ANY_SOURCE, ANY_TAG, Comm, Transport


def test_send_recv_roundtrip(world):
    eng, cluster, transport, comms = world()
    got = []

    def sender():
        yield from comms[0].send(1, {"x": 42}, tag=7)

    def receiver():
        msg = yield comms[1].recv(source=0, tag=7)
        got.append(msg.payload)

    eng.process(sender())
    eng.process(receiver())
    eng.run()
    assert got == [{"x": 42}]


def test_send_blocks_for_wire_time(world):
    eng, cluster, transport, comms = world()
    done = []

    def sender():
        yield from comms[0].send(1, np.zeros(1000, dtype=np.float64))
        done.append(eng.now)

    def receiver():
        yield comms[1].recv()

    eng.process(sender())
    eng.process(receiver())
    eng.run()
    link = cluster.params.link
    expected = link.latency + (8000 + 32) / link.bandwidth
    assert done == [pytest.approx(expected)]


def test_send_is_eager_does_not_wait_for_receiver(world):
    eng, cluster, transport, comms = world()
    send_done = []

    def sender():
        yield from comms[0].send(1, None)
        send_done.append(eng.now)

    def late_receiver():
        yield eng.timeout(100.0)
        yield comms[1].recv()

    eng.process(sender())
    eng.process(late_receiver())
    eng.run()
    assert send_done[0] < 1.0  # returned long before the receive


def test_fifo_per_channel(world):
    eng, cluster, transport, comms = world()
    got = []

    def sender():
        for i in range(5):
            yield from comms[0].send(1, i)

    def receiver():
        for _ in range(5):
            msg = yield comms[1].recv(source=0)
            got.append(msg.payload)

    eng.process(sender())
    eng.process(receiver())
    eng.run()
    assert got == [0, 1, 2, 3, 4]


def test_sequence_numbers_per_channel(world):
    eng, cluster, transport, comms = world()
    seqs = []

    def sender():
        yield from comms[0].send(1, "a")
        yield from comms[0].send(2, "b")
        yield from comms[0].send(1, "c")

    def receiver(rank, n):
        for _ in range(n):
            msg = yield comms[rank].recv()
            seqs.append((rank, msg.seq))

    eng.process(sender())
    eng.process(receiver(1, 2))
    eng.process(receiver(2, 1))
    eng.run()
    assert sorted(seqs) == [(1, 1), (1, 2), (2, 1)]


def test_any_source_matching(world):
    eng, cluster, transport, comms = world()
    got = []

    def sender(rank, delay):
        yield eng.timeout(delay)
        yield from comms[rank].send(0, rank)

    def master():
        for _ in range(3):
            msg = yield comms[0].recv(source=ANY_SOURCE)
            got.append(msg.payload)

    eng.process(master())
    for r, d in [(1, 0.3), (2, 0.1), (3, 0.2)]:
        eng.process(sender(r, d))
    eng.run()
    assert got == [2, 3, 1]  # arrival order


def test_tag_matching_same_source_in_order(world):
    eng, cluster, transport, comms = world()
    got = []

    def sender():
        yield from comms[0].send(1, "first", tag=1)
        yield from comms[0].send(1, "second", tag=2)

    def receiver():
        m1 = yield comms[1].recv(source=0, tag=1)
        m2 = yield comms[1].recv(source=0, tag=2)
        got.extend([m1.payload, m2.payload])

    eng.process(sender())
    eng.process(receiver())
    eng.run()
    assert got == ["first", "second"]


def test_out_of_order_consumption_rejected(world):
    """Tag-selective receives must not jump the per-channel queue."""
    eng, cluster, transport, comms = world()

    def sender():
        yield from comms[0].send(1, "old", tag=1)
        yield from comms[0].send(1, "new", tag=2)

    def bad_receiver():
        yield comms[1].recv(source=0, tag=2)

    eng.process(sender())
    eng.process(bad_receiver())
    # the violation surfaces when the jumping message is consumed
    with pytest.raises(SimulationError, match="out of order"):
        eng.run()


def test_isend_overlaps_computation(world):
    eng, cluster, transport, comms = world()
    times = {}

    def sender():
        req = comms[0].isend(1, np.zeros(100_000))
        times["after_isend"] = eng.now
        yield req
        times["after_wait"] = eng.now

    def receiver():
        yield comms[1].recv()

    eng.process(sender())
    eng.process(receiver())
    eng.run()
    assert times["after_isend"] == 0.0
    assert times["after_wait"] > 0.0


def test_isend_order_fixed_at_call(world):
    eng, cluster, transport, comms = world()
    got = []

    def sender():
        comms[0].isend(1, "one")
        comms[0].isend(1, "two")
        yield from comms[0].send(1, "three")

    def receiver():
        for _ in range(3):
            msg = yield comms[1].recv(source=0)
            got.append(msg.payload)

    eng.process(sender())
    eng.process(receiver())
    eng.run()
    assert got == ["one", "two", "three"]


def _buffered(comm):
    return [msg.payload for msg in comm.mailbox.pending]


def _consume(eng, comm, count):
    """Receive *count* messages from rank 0 in channel order."""
    got = []

    def receiver():
        for _ in range(count):
            msg = yield comm.recv(source=0)
            got.append((msg.payload, msg.seq))

    eng.process(receiver())
    eng.run()
    return got


def test_isend_interrupted_before_its_first_step_frees_the_wire(world):
    # the wire is claimed at the isend call; an interrupt that lands
    # before the isend process first runs must withdraw that claim, or
    # every later send from the rank waits behind it forever. The
    # withdrawn message gives its sequence number back, so "b" takes it
    # and the receiver consumes the channel without a gap.
    eng, cluster, transport, comms = world(n=2)
    done = []

    def sender():
        comms[0].isend(1, "a").interrupt()
        yield from comms[0].send(1, "b")
        done.append(eng.now)

    eng.process(sender())
    eng.run()
    assert len(done) == 1
    assert _buffered(comms[1]) == ["b"]
    assert len(transport._wires[0]) == 0
    assert comms[0].sent_counts == {1: 1}
    assert _consume(eng, comms[1], 1) == [("b", 1)]


def test_queued_isend_interrupted_before_its_first_step_leaves_the_line(world):
    eng, cluster, transport, comms = world(n=2)
    done = []

    def sender():
        comms[0].isend(1, "a")
        comms[0].isend(1, "b").interrupt()  # queued behind "a"
        yield from comms[0].send(1, "c")
        done.append(eng.now)

    eng.process(sender())
    eng.run()
    assert len(done) == 1
    assert _buffered(comms[1]) == ["a", "c"]
    assert len(transport._wires[0]) == 0
    assert comms[0].sent_counts == {1: 2}
    assert _consume(eng, comms[1], 2) == [("a", 1), ("c", 2)]


def test_isend_withdrawn_mid_wire_gives_its_seq_back(world):
    eng, cluster, transport, comms = world(n=2)

    def sender():
        req = comms[0].isend(1, np.zeros(10_000))
        yield eng.timeout(1e-6)  # the transfer is on the wire now
        req.interrupt()
        yield from comms[0].send(1, "b")

    eng.process(sender())
    eng.run()
    assert comms[0].sent_counts == {1: 1}
    assert _consume(eng, comms[1], 1) == [("b", 1)]


@pytest.mark.parametrize("case", ["later-message", "agent"])
def test_isend_withdrawal_refused_leaves_the_channel_whole(world, case):
    """A withdrawal that would leave a gap is refused at the interrupt,
    with a typed error naming the channel and the seq, and the message
    is delivered as if never interrupted."""
    from repro.net import CommAgent, WithdrawalRefused

    eng, cluster, transport, comms = world(n=2)
    if case == "agent":
        comms[0].agent = CommAgent()
    refused = []

    def sender():
        req = comms[0].isend(1, "a")
        if case == "later-message":
            comms[0].isend(1, "b")
        with pytest.raises(WithdrawalRefused, match=r"seq 1 from channel 0->1") as err:
            req.interrupt()
        refused.append(err.value)
        yield eng.timeout(0)

    eng.process(sender())
    eng.run()
    assert [(e.src, e.dst, e.seq) for e in refused] == [(0, 1, 1)]
    want = [("a", 1), ("b", 2)] if case == "later-message" else [("a", 1)]
    assert _consume(eng, comms[1], len(want)) == want


def test_same_sender_messages_serialise_on_link(world):
    eng, cluster, transport, comms = world()
    arrivals = []

    def sender():
        comms[0].isend(1, np.zeros(10_000))
        comms[0].isend(2, np.zeros(10_000))
        yield eng.timeout(0)

    def receiver(rank):
        msg = yield comms[rank].recv()
        arrivals.append((rank, eng.now))

    eng.process(sender())
    eng.process(receiver(1))
    eng.process(receiver(2))
    eng.run()
    t1 = dict(arrivals)[1]
    t2 = dict(arrivals)[2]
    assert t2 >= 2 * t1 * 0.9  # second transfer waited for the first


def test_probe_non_destructive(world):
    eng, cluster, transport, comms = world()
    observed = []

    def sender():
        yield from comms[0].send(1, "peek-me", tag=3)

    def receiver():
        yield eng.timeout(1.0)
        assert comms[1].probe(source=0, tag=99) is None
        peeked = comms[1].probe(source=0, tag=3)
        observed.append(peeked.payload)
        msg = yield comms[1].recv(source=0, tag=3)
        observed.append(msg.payload)

    eng.process(sender())
    eng.process(receiver())
    eng.run()
    assert observed == ["peek-me", "peek-me"]


def test_self_send_rejected(world):
    eng, cluster, transport, comms = world()
    with pytest.raises(ValueError):  # an eager send checks at the call
        comms[0].send(0, "loop")


def test_destination_range_validated(world):
    eng, cluster, transport, comms = world()
    with pytest.raises(ValueError):  # an eager send checks at the call
        comms[0].send(99, "nowhere")


def test_negative_tag_rejected(world):
    eng, cluster, transport, comms = world()
    with pytest.raises(ValueError):  # an eager send checks at the call
        comms[0].send(1, "x", tag=-1)


def test_duplicate_rank_registration_rejected(world):
    eng, cluster, transport, comms = world()
    with pytest.raises(ValueError):
        Comm(transport, 0, 4)


def test_transport_metrics(world):
    eng, cluster, transport, comms = world()

    def sender():
        yield from comms[0].send(1, np.zeros(10))

    def receiver():
        yield comms[1].recv()

    eng.process(sender())
    eng.process(receiver())
    eng.run()
    assert transport.messages_sent == 1
    assert transport.bytes_sent == 80 + 32


def test_channel_meta_roundtrip(world):
    eng, cluster, transport, comms = world()

    def sender():
        yield from comms[0].send(1, "a")
        yield from comms[0].send(1, "b")

    def receiver():
        yield comms[1].recv()
        yield comms[1].recv()

    eng.process(sender())
    eng.process(receiver())
    eng.run()
    meta0 = comms[0].channel_meta()
    meta1 = comms[1].channel_meta()
    assert meta0["sent"] == {1: 2}
    assert meta1["consumed"] == {0: 2}

    # restoring rewinds the send sequence: the next send reuses seq 2
    comms[0].restore_meta({"sent": {1: 1}, "consumed": {}, "coll_counter": 0})
    comms[1].restore_meta({"sent": {}, "consumed": {0: 1}, "coll_counter": 0})
    got = []

    def resender():
        yield from comms[0].send(1, "b-again")

    def rereceiver():
        msg = yield comms[1].recv(source=0)
        got.append(msg.seq)

    eng.process(resender())
    eng.process(rereceiver())
    eng.run()
    assert got == [2]
