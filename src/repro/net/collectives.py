"""Collective operations built on the point-to-point layer.

The paper's applications use barrier/broadcast/reduce-style exchanges; we
implement the standard binomial-tree and dissemination algorithms so the
simulated communication cost scales as on the real machine (log p rounds,
serialised at each sender's link).

Tag discipline: every collective call consumes one slot of the per-rank
``coll_counter`` (which advances identically on all ranks under SPMD usage
and is checkpointed with the process state), and derives its wire tags from
that slot in a reserved tag space well above application tags.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from ..core.events import Event
from .api import Comm

__all__ = [
    "barrier",
    "bcast",
    "reduce",
    "gather",
    "COLL_TAG_BASE",
]

#: application tags must stay below this.
COLL_TAG_BASE = 1 << 20
#: minimum tags per collective slot (round sub-tags). The effective
#: stride grows with the communicator, room for one sub-tag per peer at
#: any p: it is the next power of two >= p, floored at 64 so every
#: communicator with p <= 64 derives the exact tags it always did.
_SLOT_STRIDE = 64


def _stride(comm: Comm) -> int:
    """Tag-space width of one collective slot for *comm* (power of two,
    >= max(64, comm.size)); identical on all ranks of the communicator."""
    p = comm.size
    if p <= _SLOT_STRIDE:
        return _SLOT_STRIDE
    return 1 << (p - 1).bit_length()


def _take_slot(comm: Comm) -> int:
    slot = comm.coll_counter
    comm.coll_counter += 1
    return slot


def barrier(comm: Comm) -> Generator[Event, Any, None]:
    """Dissemination barrier: ceil(log2 p) rounds, no central bottleneck."""
    _take_slot(comm)
    p = comm.size
    if p == 1:
        return
    round_no = 0
    dist = 1
    while dist < p:
        dst = (comm.rank + dist) % p
        src = (comm.rank - dist) % p
        yield from comm.send(dst, None, tag=_slot_tag_prev(comm, round_no))
        yield comm.recv(source=src, tag=_slot_tag_prev(comm, round_no))
        dist *= 2
        round_no += 1


def _slot_tag_prev(comm: Comm, offset: int) -> int:
    """Tag helper for the slot just consumed by ``_take_slot``."""
    stride = _stride(comm)
    if offset >= stride:
        raise ValueError(f"collective sub-tag overflow: {offset}")
    return COLL_TAG_BASE + (comm.coll_counter - 1) * stride + offset


def bcast(comm: Comm, value: Any = None, root: int = 0) -> Generator[Event, Any, Any]:
    """Binomial-tree broadcast; returns the broadcast value on every rank."""
    _take_slot(comm)
    p = comm.size
    if p == 1:
        return value
    vrank = (comm.rank - root) % p
    # receive from parent (unless root): the parent is vrank minus its
    # highest set bit.
    highest = 0
    if vrank != 0:
        highest = 1
        while (highest << 1) <= vrank:
            highest <<= 1
        parent = ((vrank - highest) + root) % p
        msg = yield comm.recv(source=parent, tag=_slot_tag_prev(comm, 0))
        value = msg.payload
    # forward to children: vrank + 2^k for every 2^k above vrank's highest
    # set bit (all powers for the root).
    mask = highest << 1 if vrank != 0 else 1
    while mask < p:
        child_v = vrank + mask
        if child_v < p:
            child = (child_v + root) % p
            yield from comm.send(child, value, tag=_slot_tag_prev(comm, 0))
        mask <<= 1
    return value


def reduce(
    comm: Comm,
    value: Any,
    op: Callable[[Any, Any], Any],
    root: int = 0,
) -> Generator[Event, Any, Optional[Any]]:
    """Binomial-tree reduction; returns the result at *root*, None elsewhere."""
    _take_slot(comm)
    p = comm.size
    vrank = (comm.rank - root) % p
    acc = value
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = ((vrank - mask) + root) % p
            yield from comm.send(parent, acc, tag=_slot_tag_prev(comm, 0))
            return None
        peer_v = vrank + mask
        if peer_v < p:
            child = (peer_v + root) % p
            msg = yield comm.recv(source=child, tag=_slot_tag_prev(comm, 0))
            acc = op(acc, msg.payload)
        mask <<= 1
    return acc if comm.rank == root else None


def gather(
    comm: Comm, value: Any, root: int = 0
) -> Generator[Event, Any, Optional[List[Any]]]:
    """Gather one value per rank at *root* (returned as a rank-ordered list)."""
    _take_slot(comm)
    if comm.rank == root:
        out: List[Any] = [None] * comm.size
        out[root] = value
        for src in range(comm.size):
            if src == root:
                continue
            msg = yield comm.recv(source=src, tag=_slot_tag_prev(comm, 0))
            out[src] = msg.payload
        return out
    yield from comm.send(root, value, tag=_slot_tag_prev(comm, 0))
    return None
