"""Reliable FIFO message passing with an MPI-like interface (CHK-LIB layer).

Point-to-point sends occupy the sender's link engine; deliveries land in
per-rank mailboxes with MPI-style ``(source, tag)`` matching; collectives
use binomial-tree / dissemination algorithms. Checkpointing schemes attach
a :class:`CommAgent` to intercept sends, deliveries and consumptions.
"""

from .._lazy import lazy_surface

#: name -> the submodule defining it, imported on first use.
_LAZY = {
    "Comm": "api",
    "CommAgent": "api",
    "WithdrawalRefused": "api",
    "Transport": "transport",
    "Mailbox": "mailbox",
    "RecvRequest": "mailbox",
    "Message": "message",
    "payload_nbytes": "message",
    "ANY_SOURCE": "message",
    "ANY_TAG": "message",
    "KIND_APP": "message",
    "KIND_MARKER": "message",
    "KIND_CONTROL": "message",
    "HEADER_BYTES": "message",
    "COLL_TAG_BASE": "collectives",
    "barrier": "collectives",
    "bcast": "collectives",
    "reduce": "collectives",
    "gather": "collectives",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_surface(__name__, _LAZY)
