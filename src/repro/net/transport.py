"""The wire: maps messages onto the machine's links.

Sending occupies the sender's outbound link engine for the transfer time
(latency + size/bandwidth, inflated by the current network pressure from
checkpoint streams crossing the interconnect), then delivers to the
destination endpoint. Each rank's outbound wire is a claim queue the
transport owns: the head of the rank's deque holds the wire, the rest wait
in call order, and a claim's event fires when it reaches the head.
Per-sender FIFO falls out of that queue — which is exactly the ordering
guarantee the marker protocol needs (a marker sent after a cut arrives
after all pre-cut messages from that sender).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Generator, List

from ..core.errors import SizeOnlyError
from ..core.events import Event
from .message import SIZE_ONLY, Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.tracing import Tracer
    from ..machine.cluster import Cluster

__all__ = ["Transport"]


class Transport:
    """Routes messages between ranks over the cluster's links."""

    #: Capture manifest (see :mod:`repro.chklib.resume`): only the wire
    #: accounting travels in a durable line. Endpoints and sequence
    #: counters are volatile — restart re-registers comms and the
    #: recovery path rewinds per-channel counters from checkpoint state.
    RESUME_FIELDS = (
        "messages_sent",
        "bytes_sent",
        "control_messages",
        "control_bytes",
    )
    VOLATILE_FIELDS = (
        "cluster",
        "engine",
        "tracer",
        "endpoints",
        "_next_seq",
        "_wires",
    )

    def __init__(self, cluster: "Cluster", tracer: "Tracer | None" = None) -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.tracer = tracer
        #: per-rank delivery targets, registered by Comm instances.
        self.endpoints: Dict[int, Callable[[Message], None]] = {}
        #: per-(src, dst) next sequence number.
        self._next_seq: Dict[tuple[int, int], int] = {}
        #: per-rank outbound wire: the claim at the head holds it, the
        #: others wait behind it in call order.
        self._wires: List[Deque[Event]] = [
            deque() for _ in range(cluster.n_nodes)
        ]
        # metrics
        self.messages_sent = 0
        self.bytes_sent = 0
        self.control_messages = 0
        self.control_bytes = 0

    # -- registration --------------------------------------------------------

    def register(self, rank: int, deliver: Callable[[Message], None]) -> None:
        if rank in self.endpoints:
            raise ValueError(f"rank {rank} already registered")
        self.endpoints[rank] = deliver

    # -- sequence numbers -------------------------------------------------------

    def next_seq(self, src: int, dst: int) -> int:
        """Allocate the next per-channel sequence number (1-based)."""
        key = (src, dst)
        seq = self._next_seq.get(key, 0) + 1
        self._next_seq[key] = seq
        return seq

    def rewind_seq(self, src: int, dst: int, to: int) -> None:
        """Reset a channel's send counter after a rollback, so replayed
        sends reuse the original sequence numbers (duplicate suppression)."""
        self._next_seq[(src, dst)] = int(to)

    def seq_state(self) -> Dict[tuple[int, int], int]:
        """Snapshot of all channel send counters (for checkpoint metadata)."""
        return dict(self._next_seq)

    # -- the wire -----------------------------------------------------------------

    def send(self, msg: Message) -> Generator[Event, Any, None]:
        """Transfer *msg*; blocks the calling process for the wire time.

        The sender's link slot is *claimed at call time* (not at first
        iteration of the returned generator), so a mix of ``isend`` and
        ``send`` from one rank transfers in call order — the FIFO guarantee
        the marker protocol depends on.
        """
        if msg.dst not in self.endpoints:
            raise KeyError(f"no endpoint registered for rank {msg.dst}")
        if msg.src == msg.dst:
            raise ValueError(f"self-send not allowed: {msg!r}")
        msg.finalize_size()
        wire = self._wires[msg.src]
        claim = Event(self.engine)
        wire.append(claim)
        if len(wire) == 1:
            claim.succeed()  # the wire was free: granted now
        return self._transfer(msg, wire, claim)

    def _transfer(
        self, msg: Message, wire: Deque[Event], claim: Event
    ) -> Generator[Event, Any, None]:
        try:
            yield claim
            pressure = self.cluster.network_pressure()
            # pooled delay: one per message, recycled by the engine; the
            # (src, dst) pair routes through the topology's link cost
            yield self.engine.delay(
                self.cluster.message_time(msg.size, msg.src, msg.dst) * pressure
            )
        finally:
            # release (or withdraw, if interrupted while queued): the next
            # claim in line is granted at this instant
            if wire[0] is claim:
                wire.popleft()
                if wire:
                    wire[0].succeed()
            else:
                wire.remove(claim)
        self._account(msg)
        self.endpoints[msg.dst](msg)

    def _account(self, msg: Message) -> None:
        if msg.kind == "app":
            self.messages_sent += 1
            self.bytes_sent += msg.size
            if self.tracer:
                self.tracer.add("net.app_messages")
                self.tracer.add("net.app_bytes", msg.size)
        else:
            self.control_messages += 1
            self.control_bytes += msg.size
            if self.tracer:
                self.tracer.add("net.control_messages")
                self.tracer.add("net.control_bytes", msg.size)

    def deliver_local(self, msg: Message) -> None:
        """Inject a message directly into an endpoint without wire time
        (recovery re-injection of recorded channel state)."""
        if msg.dst not in self.endpoints:
            raise KeyError(f"no endpoint registered for rank {msg.dst}")
        if msg.payload is SIZE_ONLY:
            raise SizeOnlyError(
                f"cannot replay {msg!r}: the run that recorded it kept the "
                f"size, not the payload"
            )
        self.endpoints[msg.dst](msg)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Transport ranks={len(self.endpoints)} "
            f"app_msgs={self.messages_sent} ctl_msgs={self.control_messages}>"
        )
