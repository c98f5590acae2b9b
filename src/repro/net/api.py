"""The MPI-like communication API of the reproduced CHK-LIB.

One :class:`Comm` per rank. Point-to-point semantics:

* ``send`` is *eager*: it occupies the sender for the wire time and never
  waits for the receiver (messages buffer at the destination mailbox). This
  matters for the paper's results — a process blocked inside a checkpoint
  stalls only the processes that *receive from* it, which is exactly the
  stall-propagation mechanism that penalises independent checkpointing in
  tightly-coupled applications. The message is built, validated and put on
  the sender's wire at the call; the returned generator (drive it with
  ``yield from``) waits out the wire time.
* ``recv`` returns the mailbox's :class:`~repro.net.mailbox.RecvRequest`;
  ``yield`` it to block until a matching message was consumed. The match
  is made at the call, so a ``recv`` that is not yielded still consumes a
  buffered message.
* per-``(src, dst)`` channels are reliable and FIFO; consumption within a
  channel is enforced to be in sequence order (the checkpoint layer's
  dependency accounting is prefix-based).

A checkpointing scheme attaches a :class:`CommAgent` to intercept sends
(epoch piggybacking), deliveries (channel-state recording, duplicate
suppression, control routing) and consumptions (dependency counting).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from ..core.errors import SimulationError
from ..core.events import Event
from ..core.process import Process
from .mailbox import Mailbox, RecvRequest
from .message import ANY_SOURCE, ANY_TAG, KIND_APP, Message
from .transport import Transport

__all__ = ["Comm", "CommAgent", "WithdrawalRefused"]


class WithdrawalRefused(SimulationError):
    """An interrupted ``isend`` could not take its message back.

    Withdrawing a send before delivery gives back its channel sequence
    number and send count, which only leaves the channel consistent while
    the message is the newest one numbered on it and no agent has
    accounted it; otherwise the interrupt is refused with this error and
    the message stays on its way.
    """

    def __init__(self, src: int, dst: int, seq: int, reason: str) -> None:
        super().__init__(
            f"cannot withdraw seq {seq} from channel {src}->{dst}: {reason}"
        )
        self.src = src
        self.dst = dst
        self.seq = seq


class CommAgent:
    """Interception points for a checkpointing scheme (default: no-ops).

    Subclassed by :mod:`repro.chklib.schemes`; kept here so the network
    layer has no dependency on the checkpointing layer.
    """

    def on_send(self, msg: Message) -> None:
        """Called just before *msg* enters the wire (stamp epoch, log it)."""

    def on_deliver(self, msg: Message) -> bool:
        """Called when *msg* arrives at the destination endpoint.

        Return ``False`` to drop it (duplicate suppression after rollback);
        ``True`` to proceed. Channel-state recording happens here.
        """
        return True

    def on_control(self, msg: Message) -> None:
        """Called for non-app messages (markers, protocol control)."""

    def on_consume(self, msg: Message) -> None:
        """Called when the application consumes *msg* from the mailbox."""

    def send_extra(self, msg: Message):
        """Optional generator of extra blocking work charged to the sender
        before the wire transfer (e.g. a pessimistic message-log flush).
        Return ``None`` for no extra work."""
        return None


class Comm:
    """Rank-local communicator with MPI-like point-to-point operations."""

    def __init__(
        self,
        transport: Transport,
        rank: int,
        size: int,
        agent: Optional[CommAgent] = None,
    ) -> None:
        if not (0 <= rank < size):
            raise ValueError(f"rank {rank} out of range for size {size}")
        self.transport = transport
        self.engine = transport.engine
        self.rank = rank
        self.size = size
        self.agent = agent
        self.mailbox = Mailbox(self.engine, rank)
        self.mailbox.on_consume = self._on_consume
        #: app messages sent per destination rank (channel send counts).
        self.sent_counts: Dict[int, int] = {}
        #: app messages consumed per source rank (channel receive counts).
        self.consumed_counts: Dict[int, int] = {}
        #: collective-operation counter (must advance identically on every
        #: rank; checkpointed and restored with the process state).
        self.coll_counter = 0
        transport.register(rank, self._deliver)

    # -- delivery path -----------------------------------------------------

    def _deliver(self, msg: Message) -> None:
        if self.agent is not None:
            if not self.agent.on_deliver(msg):
                return  # suppressed duplicate
            if msg.kind != KIND_APP:
                self.agent.on_control(msg)
                return
        elif msg.kind != KIND_APP:
            raise SimulationError(
                f"rank {self.rank} got control message {msg!r} without an agent"
            )
        self.mailbox.deliver(msg)

    def _on_consume(self, msg: Message) -> None:
        expected = self.consumed_counts.get(msg.src, 0) + 1
        if msg.seq != expected:
            raise SimulationError(
                f"rank {self.rank} consumed message {msg!r} out of order "
                f"(expected seq {expected}); per-channel consumption must be "
                f"FIFO for checkpoint dependency accounting"
            )
        self.consumed_counts[msg.src] = msg.seq
        if self.agent is not None:
            self.agent.on_consume(msg)

    # -- point-to-point -----------------------------------------------------------

    def send(
        self, dst: int, payload: Any, tag: int = 0
    ) -> Generator[Event, Any, None]:
        """Eager send: builds and validates the message now and returns the
        generator that blocks for its wire time (``yield from``)."""
        return self._post(self._make_app_message(dst, payload, tag))

    def _post(self, msg: Message) -> Generator[Event, Any, None]:
        """The sender's side of *msg*: the agent's extra work, if any, then
        the wire."""
        extra = self.agent.send_extra(msg) if self.agent is not None else None
        if extra is None:
            return self.transport.send(msg)
        msg.finalize_size()
        return self._send_after(extra, msg)

    def isend(self, dst: int, payload: Any, tag: int = 0) -> Process:
        """Non-blocking send; returns a process event to optionally wait on.

        The message (and its sequence number) is created *now*, so the send
        order is fixed at call time even though the wire transfer proceeds
        in the background. Interrupting the process before delivery
        withdraws the message (see :meth:`_withdraw`).
        """
        msg = self._make_app_message(dst, payload, tag)
        return _ISend(self, msg, self._post(msg))

    def _send_after(self, extra, msg: Message):
        """The sender's extra work first, then the wire (claimed only once
        the extra work is done)."""
        yield from extra
        yield from self.transport.send(msg)

    def _make_app_message(self, dst: int, payload: Any, tag: int) -> Message:
        if dst == self.rank:
            raise ValueError(f"rank {self.rank}: self-send not supported")
        if not (0 <= dst < self.size):
            raise ValueError(f"destination {dst} out of range")
        if tag < 0:
            raise ValueError(f"negative tags are reserved, got {tag}")
        msg = Message(
            src=self.rank,
            dst=dst,
            tag=tag,
            payload=payload,
            seq=self.transport.next_seq(self.rank, dst),
            kind=KIND_APP,
        )
        self.sent_counts[dst] = self.sent_counts.get(dst, 0) + 1
        if self.agent is not None:
            self.agent.on_send(msg)
        return msg

    def _withdraw(self, msg: Message) -> None:
        """Take back *msg*, an app message not yet delivered: give back its
        sequence number and its send count, as if it had never been sent.
        Refused (:class:`WithdrawalRefused`, the channel untouched) when an
        agent has already accounted it or a later message is numbered on
        the channel — either would leave a gap the receiver trips on."""
        if self.agent is not None:
            reason = "the agent already accounted it"
        elif not self.transport.withdraw_seq(msg.src, msg.dst, msg.seq):
            reason = "a later message is already numbered on the channel"
        else:
            left = self.sent_counts[msg.dst] - 1
            if left:
                self.sent_counts[msg.dst] = left
            else:
                del self.sent_counts[msg.dst]
            return
        raise WithdrawalRefused(msg.src, msg.dst, msg.seq, reason)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        """Blocking receive: ``yield`` the request; it fires with the
        matched :class:`Message`."""
        return self.mailbox.recv(source, tag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Message]:
        """Oldest matching buffered message without consuming it, else None."""
        return self.mailbox.probe(source, tag)

    # -- control-plane sends (used by checkpointing schemes) ------------------

    def send_control(
        self, dst: int, kind: str, payload: Any = None, tag: int = 0, **meta: Any
    ) -> Generator[Event, Any, None]:
        """Send a protocol message (no channel sequence number, bypasses the
        application mailbox at the destination)."""
        msg = Message(
            src=self.rank,
            dst=dst,
            tag=tag,
            payload=payload,
            seq=0,
            kind=kind,
            meta=dict(meta),
        )
        if self.agent is not None:
            self.agent.on_send(msg)
        yield from self.transport.send(msg)

    # -- checkpoint/rollback support -----------------------------------------

    def channel_meta(self) -> dict:
        """Snapshot of the communication counters (goes into checkpoints)."""
        return {
            "sent": dict(self.sent_counts),
            "consumed": dict(self.consumed_counts),
            "coll_counter": self.coll_counter,
        }

    def restore_meta(self, meta: dict) -> None:
        """Restore counters from a checkpoint and rewind send sequences so
        re-executed sends reuse their original sequence numbers."""
        # only channels this rank has used carry a sequence counter: the
        # ones live now and the ones the checkpoint knew (a channel in
        # neither already reads as 0)
        used = self.sent_counts.keys() | meta["sent"].keys()
        self.sent_counts = dict(meta["sent"])
        self.consumed_counts = dict(meta["consumed"])
        self.coll_counter = int(meta["coll_counter"])
        for dst in used:
            self.transport.rewind_seq(self.rank, dst, self.sent_counts.get(dst, 0))

    def reset_mailbox(self) -> None:
        """Drop all buffered messages and pending receives (rollback)."""
        self.mailbox.drain()
        self.mailbox.cancel_waiters()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Comm rank={self.rank}/{self.size}>"


class _ISend(Process):
    """The background process of one ``isend``.

    Interrupting it while the message is undelivered withdraws the message
    at the interrupt, before any later send can be numbered behind it, and
    raises :class:`WithdrawalRefused` there if the channel cannot take it
    back. The process is defused: its own failure (the ``Interrupt``) is
    expected and reaches no one.
    """

    __slots__ = ("_comm", "_msg")

    def __init__(self, comm: Comm, msg: Message, body) -> None:
        super().__init__(comm.engine, body, name=f"isend:{msg.src}->{msg.dst}")
        self.defused = True
        self._comm = comm
        self._msg: Optional[Message] = msg

    def interrupt(self, cause: Any = None) -> None:
        msg = self._msg
        if msg is not None and self.is_alive:
            self._comm._withdraw(msg)
            self._msg = None
        super().interrupt(cause)
