"""Messages of the CHK-LIB communication layer.

Every message carries, besides payload and MPI-style ``(src, dst, tag)``
addressing:

* ``seq`` — the per-``(src, dst)`` channel sequence number. Channels are
  reliable and FIFO (as in the paper's CHK-LIB); sequence numbers make
  duplicate suppression after a rollback trivial.
* ``epoch`` — the sender's checkpoint epoch, piggybacked on every message.
  The coordinated protocols use it to classify messages as pre-/post-cut
  (Chandy–Lamport marker semantics without extra payload bytes).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "Message",
    "payload_nbytes",
    "KIND_APP",
    "KIND_MARKER",
    "KIND_CONTROL",
    "HEADER_BYTES",
    "SIZE_ONLY",
    "ANY_SOURCE",
    "ANY_TAG",
]

#: message kinds
KIND_APP = "app"
KIND_MARKER = "marker"
KIND_CONTROL = "control"

#: fixed per-message header cost on the wire (addressing, seq, epoch, tag).
HEADER_BYTES = 32


class _SizeOnly:
    """Payload of a recorded message that kept ``size`` but not the bytes."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<size-only>"

    def __reduce__(self):  # one identity across pickling
        return "SIZE_ONLY"


#: what a checkpoint on a run that can never replay holds in place of a
#: logged / channel-recorded payload; the message keeps its final ``size``.
SIZE_ONLY = _SizeOnly()

#: wildcards for :meth:`repro.net.api.Comm.recv`
ANY_SOURCE = -1
ANY_TAG = -1


def payload_nbytes(payload: Any) -> int:
    """Wire size of a payload in bytes.

    NumPy arrays are costed at their buffer size (CHK-LIB shipped raw
    buffers); everything else at its pickled size. Small scalars get a
    floor of 8 bytes.
    """
    if payload.__class__ is np.ndarray:  # the apps' halo rows and blocks
        return payload.nbytes
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bool, int, float)):
        return 8
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, tuple) and all(
        isinstance(p, (np.ndarray, int, float, bool, type(None))) for p in payload
    ):
        return sum(payload_nbytes(p) for p in payload)
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


@dataclass(slots=True)
class Message:
    """One message on the wire (or recorded into a checkpoint)."""

    src: int
    dst: int
    tag: int
    payload: Any
    seq: int = 0
    epoch: int = 0
    kind: str = KIND_APP
    #: wire size; computed at send time if left at 0.
    size: int = 0
    #: free-form protocol fields (checkpoint number, token hop, ...).
    meta: dict = field(default_factory=dict)

    def finalize_size(self) -> None:
        if self.size == 0:
            self.size = HEADER_BYTES + payload_nbytes(self.payload)

    def shell_copy(self) -> "Message":
        """A copy of the message shell: the payload is shared (payloads are
        immutable by the application contract), ``meta`` is copied, so later
        meta mutation on either side cannot alias."""
        return Message(
            self.src,
            self.dst,
            self.tag,
            self.payload,
            self.seq,
            self.epoch,
            self.kind,
            self.size,
            dict(self.meta),
        )

    @property
    def channel(self) -> tuple[int, int]:
        return (self.src, self.dst)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Msg {self.kind} {self.src}->{self.dst} tag={self.tag} "
            f"seq={self.seq} epoch={self.epoch} size={self.size}>"
        )
