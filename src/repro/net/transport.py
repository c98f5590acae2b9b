"""The wire: maps messages onto the machine's links.

Sending occupies the sender's outbound link for the transfer time
(latency + size/bandwidth, inflated by the current network pressure from
checkpoint streams crossing the interconnect), then delivers to the
destination endpoint. Each rank's outbound wire is a queue the transport
owns: the head holds the wire, the rest wait in call order. A send that
finds its wire free is granted at the call — it reads the pressure and
schedules the wire time there and then, and fires no claim event. A send
that finds the wire busy appends a claim ``Event``, which fires when it
reaches the head; only then is the pressure read. Per-sender FIFO falls
out of that queue — which is exactly the ordering guarantee the marker
protocol needs (a marker sent after a cut arrives after all pre-cut
messages from that sender).

The transport's message and byte counts are the run's only ``net.*``
counts: the runtime copies them into ``RunReport.counters`` at report
time (:meth:`Transport.counters`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Generator, List

from ..core.errors import SizeOnlyError
from ..core.events import Event
from .message import KIND_APP, SIZE_ONLY, Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.cluster import Cluster

__all__ = ["Transport"]


class Transport:
    """Routes messages between ranks over the cluster's links."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        #: per-rank delivery targets, registered by Comm instances.
        self.endpoints: Dict[int, Callable[[Message], None]] = {}
        #: per-(src, dst) next sequence number.
        self._next_seq: Dict[tuple[int, int], int] = {}
        #: per-rank outbound wire: the head holds it (the wire time of a
        #: transfer granted at its call, or a claim that reached the head),
        #: the claims behind it wait in call order.
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

    def withdraw_seq(self, src: int, dst: int, seq: int) -> bool:
        """Give back *seq*, the number of a message withdrawn before
        delivery, if it is still the channel's newest; False (nothing
        changed) once a later message has been numbered."""
        key = (src, dst)
        if self._next_seq.get(key, 0) != seq:
            return False
        self._next_seq[key] = seq - 1
        return True

    def rewind_seq(self, src: int, dst: int, to: int) -> None:
        """Reset a channel's send counter after a rollback, so replayed
        sends reuse the original sequence numbers (duplicate suppression)."""
        self._next_seq[(src, dst)] = int(to)

    # -- the wire -----------------------------------------------------------------

    def send(self, msg: Message) -> Generator[Event, Any, None]:
        """Transfer *msg*; blocks the calling process for the wire time.

        The sender's wire is *claimed at call time* (not at first
        iteration of the returned generator), so a mix of ``isend`` and
        ``send`` from one rank transfers in call order — the FIFO guarantee
        the marker protocol depends on. On a free wire the transfer starts
        at the call: the returned generator only waits out the wire time.
        """
        if msg.dst not in self.endpoints:
            raise KeyError(f"no endpoint registered for rank {msg.dst}")
        if msg.src == msg.dst:
            raise ValueError(f"self-send not allowed: {msg!r}")
        msg.finalize_size()
        wire = self._wires[msg.src]
        if wire:  # busy: wait in line for the claims ahead
            claim = Event(self.engine)
            wire.append(claim)
            transfer = self._transfer(msg, wire, claim, None)
        else:
            hop = self._hop(msg)  # free: granted now, the wire time starts
            wire.append(hop)
            transfer = self._transfer(msg, wire, hop, hop)
        # step it into its ``try``: a process interrupted (or a generator
        # closed) before its first step then still withdraws the claim
        next(transfer)
        return transfer

    def _hop(self, msg: Message) -> Event:
        """The wire time of *msg* from now: its route's cost under the
        pressure of this instant (one pooled delay per message)."""
        cluster = self.cluster
        pressure = cluster.network_pressure()
        return self.engine.delay(
            cluster.message_time(msg.size, msg.src, msg.dst) * pressure
        )

    def _transfer(
        self, msg: Message, wire: Deque[Event], claim: Event, hop: "Event | None"
    ) -> Generator[Event, Any, None]:
        try:
            yield  # where send() parks it
            if hop is None:
                yield claim
                hop = self._hop(msg)
            yield hop
        finally:
            # release (or withdraw, if interrupted while queued): the next
            # claim in line is granted at this instant
            if wire[0] is claim:
                wire.popleft()
                if wire:
                    wire[0].succeed()
            else:
                wire.remove(claim)
        if msg.kind == KIND_APP:
            self.messages_sent += 1
            self.bytes_sent += msg.size
        else:
            self.control_messages += 1
            self.control_bytes += msg.size
        self.endpoints[msg.dst](msg)

    def counters(self) -> Dict[str, float]:
        """The run's ``net.*`` counts, each present only once non-zero."""
        counts = {
            "net.app_messages": self.messages_sent,
            "net.app_bytes": self.bytes_sent,
            "net.control_messages": self.control_messages,
            "net.control_bytes": self.control_bytes,
        }
        return {name: float(n) for name, n in counts.items() if n}

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
