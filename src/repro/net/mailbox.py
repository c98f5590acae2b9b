"""Receive-side message matching.

A :class:`Mailbox` holds delivered-but-unconsumed messages and pending
receives. Matching is MPI-like: a receive names ``(source, tag)`` with
wildcards; it matches the *oldest* delivered message that satisfies both.
Within one channel (fixed ``src``) consumption is therefore FIFO as long as
the application does not use tag-selective receives to jump the queue — the
checkpointing layer's per-channel accounting relies on in-order consumption
and enforces it (see :class:`repro.net.api.Comm`).

A receive matches at the call: :meth:`Mailbox.recv` consumes a buffered
match at once (its request fires at this instant) or parks the request
until a delivery matches it. The match test is written out inline in
:meth:`~Mailbox.deliver` and :meth:`~Mailbox.recv`, the two hot paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ..core.events import Event
from .message import ANY_SOURCE, ANY_TAG, Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import Engine

__all__ = ["Mailbox", "RecvRequest"]


class RecvRequest(Event):
    """A pending receive; fires with the matched :class:`Message`."""

    __slots__ = ("source", "tag")

    def __init__(self, engine: "Engine", source: int, tag: int) -> None:
        super().__init__(engine)
        self.source = source
        self.tag = tag


class Mailbox:
    """Delivered-message buffer with wildcard matching."""

    def __init__(self, engine: "Engine", rank: int) -> None:
        self.engine = engine
        self.rank = rank
        self.pending: List[Message] = []
        self._waiters: List[RecvRequest] = []
        #: called with each message the moment a receive consumes it
        #: (the checkpoint agent's accounting hook).
        self.on_consume: Optional[Callable[[Message], None]] = None

    # -- delivery ----------------------------------------------------------

    def deliver(self, msg: Message) -> None:
        """A message arrived from the transport; match or buffer it."""
        src = msg.src
        tag = msg.tag
        for i, waiter in enumerate(self._waiters):
            if (waiter.source == ANY_SOURCE or waiter.source == src) and (
                waiter.tag == ANY_TAG or waiter.tag == tag
            ):
                del self._waiters[i]
                self._consume(msg, waiter)
                return
        self.pending.append(msg)

    # -- consumption ---------------------------------------------------------

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        """Consume the oldest matching message (event fires with it)."""
        req = RecvRequest(self.engine, source, tag)
        for i, msg in enumerate(self.pending):
            if (source == ANY_SOURCE or source == msg.src) and (
                tag == ANY_TAG or tag == msg.tag
            ):
                del self.pending[i]
                self._consume(msg, req)
                return req
        self._waiters.append(req)
        return req

    def _consume(self, msg: Message, req: RecvRequest) -> None:
        if self.on_consume is not None:
            self.on_consume(msg)
        req.succeed(msg)

    # -- introspection ------------------------------------------------------

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Message]:
        """Oldest matching buffered message, without consuming it."""
        for msg in self.pending:
            if (source == ANY_SOURCE or source == msg.src) and (
                tag == ANY_TAG or tag == msg.tag
            ):
                return msg
        return None

    def drain(self) -> List[Message]:
        """Remove and return all buffered messages (rollback support)."""
        msgs, self.pending = self.pending, []
        return msgs

    def cancel_waiters(self) -> List[Tuple[int, int]]:
        """Drop all pending receives (rollback support); returns their specs."""
        specs = [(w.source, w.tag) for w in self._waiters]
        self._waiters.clear()
        return specs

    def __len__(self) -> int:
        return len(self.pending)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Mailbox r{self.rank} pending={len(self.pending)} "
            f"waiters={len(self._waiters)}>"
        )
