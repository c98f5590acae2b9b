"""The transport's own wire queue against the ``Resource`` it replaced.

Each rank's outbound wire used to be a capacity-1 ``Resource`` on the
cluster, and every message re-derived its route through the topology.
``Transport`` now keeps the wire queue itself, the cluster costs each
route once, and a send that finds its wire free starts its transfer at
the call instead of waiting for a granted claim to fire. The reference
below is the ``Resource`` spelling; it records which of its requests were
granted at the call. The step-hook transcript of one scenario under the
transport must equal the reference's with exactly those requests' entries
removed, the engine's sequence counter must be lower by exactly their
count, and the log, the clock and the counters must be equal.
"""

import numpy as np
import pytest

from repro.core import Engine, Interrupt, Resource
from repro.machine import Cluster, MachineParams, TopologyParams
from repro.net import Comm, CommAgent, Transport


class _ParentTransport(Transport):
    """``Transport.send`` as it was: the wire a ``Resource`` request, fired
    even when granted at the call, and the route costed through the
    topology on every message (the reference)."""

    def __init__(self, cluster):
        super().__init__(cluster)
        self.tx_links = [
            Resource(cluster.engine, capacity=1, name=f"tx-link:{i}")
            for i in range(cluster.n_nodes)
        ]
        #: the requests granted at the call (the wire was free)
        self.granted = []

    def send(self, msg):
        if msg.dst not in self.endpoints:
            raise KeyError(f"no endpoint registered for rank {msg.dst}")
        if msg.src == msg.dst:
            raise ValueError(f"self-send not allowed: {msg!r}")
        msg.finalize_size()
        req = self.tx_links[msg.src].request()
        if req.triggered:
            self.granted.append(req)
        return self._parent_transfer(msg, req)

    def _message_time(self, nbytes, src, dst):
        cluster = self.cluster
        link = cluster.params.link
        if cluster.topology.is_flat:
            return link.latency + nbytes / link.bandwidth
        latency, bandwidth = cluster.topology.link_cost(link, src, dst)
        return latency + nbytes / bandwidth

    def _parent_transfer(self, msg, req):
        try:
            yield req
            pressure = self.cluster.network_pressure()
            yield self.engine.delay(
                self._message_time(msg.size, msg.src, msg.dst) * pressure
            )
        finally:
            req.cancel()
        if msg.kind == "app":
            self.messages_sent += 1
            self.bytes_sent += msg.size
        else:
            self.control_messages += 1
            self.control_bytes += msg.size
        self.endpoints[msg.dst](msg)


class _Recorder(CommAgent):
    def __init__(self, log):
        self.log = log

    def on_control(self, msg):
        self.log.append(("control", msg.src, msg.dst, msg.kind))


def _scenario(transport_cls, backend, topology):
    """One rank mixing ``isend``/``send``/``send_control``, a sender
    interrupted while queued behind its wire, one interrupted while it
    holds it, and a bystander rank sending across racks throughout."""
    eng = Engine(backend=backend)
    cluster = Cluster(eng, MachineParams(n_nodes=6, topology=topology))
    transport = transport_cls(cluster)
    log = []
    comms = [Comm(transport, r, 6, agent=_Recorder(log)) for r in range(6)]
    fired = []
    name = {"Request": "Event"}  # the claim was a Request, now a plain Event
    # the hook keeps each event, so the engine recycles none of them
    eng.step_hook = lambda t, ev: fired.append(
        (t, name.get(type(ev).__name__, type(ev).__name__), ev)
    )
    big, small = np.zeros(4096), np.zeros(16)

    def mixer():
        comms[0].isend(1, big, tag=1)  # claims the wire at call time
        comms[0].isend(4, small, tag=2)  # queued behind it, across racks
        yield from comms[0].send(3, small, tag=3)  # queued behind both
        log.append(("sent", 0, eng.now))
        yield from comms[0].send_control(5, "marker", round=1)
        done = comms[0].isend(2, big, tag=4)
        yield from comms[0].send(1, small, tag=5)  # behind the isend
        yield done
        log.append(("mixer done", eng.now))

    def victim(tag, payload):
        try:
            yield from comms[1].send(2, payload, tag=tag)
            log.append(("sent", tag, eng.now))
        except Interrupt as exc:
            log.append(("interrupted", tag, exc.cause, eng.now))

    def rank1():
        comms[1].isend(3, big, tag=10)  # holds rank 1's wire for a while
        queued = eng.process(victim(11, small))
        follower = comms[1].isend(0, small, tag=12)  # behind the victim
        yield eng.timeout(1e-6)
        queued.interrupt("while queued")
        yield follower
        holder = eng.process(victim(13, big))  # wire free: granted at once
        behind = comms[1].isend(5, small, tag=14)
        yield eng.timeout(1e-6)
        holder.interrupt("while holding")
        yield behind
        log.append(("rank1 done", eng.now))

    def bystander():
        for k in range(4):
            yield from comms[4].send(k % 4, small, tag=20 + k)
            yield eng.timeout(5e-5)

    def drain(rank):
        while True:
            msg = yield comms[rank].recv()
            log.append(("recv", msg.src, rank, msg.tag, eng.now))

    eng.process(mixer())
    eng.process(rank1())
    eng.process(bystander())
    for rank in range(6):
        eng.process(drain(rank))
    eng.run(until=1.0)
    counters = (
        transport.messages_sent,
        transport.bytes_sent,
        transport.control_messages,
        transport.control_bytes,
    )
    return transport, fired, (log, eng.now, counters), eng._seq


TOPOLOGIES = [
    TopologyParams(),
    TopologyParams(kind="racks", nodes_per_rack=2),
]


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=["flat", "racks"])
@pytest.mark.parametrize("backend", ["reference", "twotier"])
def test_wire_queue_fires_like_the_resource(backend, topology):
    reference, want_fired, want, want_seq = _scenario(
        _ParentTransport, backend, topology
    )
    _, got_fired, got, seq = _scenario(Transport, backend, topology)
    # a wire granted at the call fires no claim: exactly the reference's
    # granted requests are missing from the transcript, each took one
    # sequence number, and nothing else moves
    granted = {id(req) for req in reference.granted}
    assert sum(id(e[2]) in granted for e in want_fired) == len(granted) > 0
    assert [e[:2] for e in got_fired] == [
        e[:2] for e in want_fired if id(e[2]) not in granted
    ]
    assert seq == want_seq - len(granted)
    assert got == want  # the log, the clock and the counters
    log = got[0]
    # the scenario did what it claims: both interrupts landed, neither
    # victim's message was delivered, and the queue moved on behind them
    assert ("interrupted", 11, "while queued", 1e-6) in log
    assert any(e[:3] == ("interrupted", 13, "while holding") for e in log)
    delivered = {e[3] for e in log if e[0] == "recv"}
    assert {11, 13}.isdisjoint(delivered)
    assert {1, 2, 3, 4, 5, 10, 12, 14} <= delivered
    assert ("control", 0, 5, "marker") in log
    assert len(got_fired) > 50
