"""Process-state snapshots.

A checkpoint's payload is a pickled deep copy of the application's state
dictionary (NumPy arrays, counters, RNG state). Pickling both isolates the
snapshot from later in-place mutation and yields a realistic byte size —
the single number that drives all of the paper's overhead results.

Because only the *size* drives them, a snapshot on a run nothing can ever
restore lets go of the bytes (:meth:`Snapshot.drop_bytes`) and keeps
``nbytes`` and the capture-time CRC; asking it for the bytes afterwards
raises :class:`~repro.core.errors.SizeOnlyError`.

The applications' contract (see :mod:`repro.apps.base`):

* all replay-relevant state lives in one dict, mutated in place;
* the dict is snapshot-safe at every ``checkpoint_point()`` yield;
* re-running ``app.run(ctx, restored_state)`` reproduces the execution
  exactly (piecewise determinism — the RNG generator lives in the dict).
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any, Dict, Optional

from ..core.errors import SizeOnlyError

__all__ = ["Snapshot"]


class Snapshot:
    """An immutable copy of a process state: restorable while it holds its
    bytes, a size and a checksum either way."""

    __slots__ = ("_blob", "nbytes", "checksum")

    def __init__(self, blob: bytes) -> None:
        self._blob: Optional[bytes] = blob
        self.nbytes = len(blob)
        #: CRC of the image, computed once here (integrity validation at
        #: recovery compares against it; corruption perturbs the stored
        #: copy on the record, never the image).
        self.checksum = zlib.crc32(blob)

    @classmethod
    def capture(cls, state: Dict[str, Any]) -> "Snapshot":
        """Deep-copy *state* via pickling."""
        if not isinstance(state, dict):
            raise TypeError(f"process state must be a dict, got {type(state)!r}")
        return cls(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))

    def drop_bytes(self) -> None:
        """Keep ``nbytes`` and ``checksum``, release the image."""
        self._blob = None

    @property
    def blob(self) -> bytes:
        """The serialized state (page-level dirty tracking reads this)."""
        if self._blob is None:
            raise SizeOnlyError(
                f"{self!r} kept its size, not its bytes: the run that took "
                f"it had no fault model, so nothing could ever restore it"
            )
        return self._blob

    def restore(self) -> Dict[str, Any]:
        """A fresh, independent copy of the captured state."""
        return pickle.loads(self.blob)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        held = "" if self._blob is not None else " size-only"
        return f"<Snapshot {self.nbytes}B{held}>"
