"""Durable recovery lines: a halted run serialised to disk.

A :class:`DurableLine` is the on-disk image of a run halted at a point in
simulated time: the committed checkpoint store, the scheme's persistent
protocol state, every RNG stream position, the trace so far and the run's
accounting counters. :meth:`CheckpointRuntime.restart_from
<repro.chklib.runtime.CheckpointRuntime.restart_from>` rebuilds a fresh
simulation from it and continues **bit-for-bit identically** to a run that
crashed at the same instant and recovered in-process — restarting *is* a
recovery, just one that crossed a process boundary.

File format::

    b"RPRL" | version:u32be | crc32:u32be | pickled payload

The whole frame is written atomically (temp file + ``os.replace``), and
:meth:`load` validates magic, version and CRC before unpickling — a torn,
corrupted or stale line raises :class:`~repro.core.errors.ResumeError`
instead of resurrecting garbage or failing on a class it no longer has.
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
import zlib
from typing import Any, Dict, Tuple, Type

from ..core.errors import ResumeError

__all__ = [
    "DurableLine",
    "LINE_MAGIC",
    "LINE_VERSION",
    "resume_fields",
    "volatile_fields",
    "resume_components",
    "capture_fields",
]

LINE_MAGIC = b"RPRL"
#: version of the whole line, frame and payload layout. v2: the payload
#: is manifest-driven (keys come from the classes' RESUME_FIELDS /
#: RESUME_COMPONENTS declarations; ``machine`` became ``machine_params``).
#: v3: an agent no longer carries ``cuts_taken`` (the ``chk.cuts`` counter
#: travels with the tracer). v4: the storage plane, its tiers, the fault
#: injector and the checkpoint store no longer carry tallies that
#: duplicate the tracer's counters. v5: a scheme carries only its
#: ``times``, no scheduling object beside them; the frame header holds
#: the version (lines before v5 stamped it inside the payload, under a
#: frame that always read 1). v6: the machine parameters lose the rack
#: buffer tier and the multi-hop link models, and the storage plane's
#: capture holds its shard servers only.
LINE_VERSION = 6
_HEADER = struct.Struct(">II")  # version, crc32


def _manifest_union(cls: Type, attr: str) -> Tuple[str, ...]:
    """Union of a tuple-valued class attribute over *cls*'s MRO, in
    base-to-leaf declaration order, deduplicated."""
    seen: Dict[str, None] = {}
    for klass in reversed(cls.__mro__):
        for name in vars(klass).get(attr, ()):
            seen.setdefault(name, None)
    return tuple(seen)


def resume_fields(cls: Type) -> Tuple[str, ...]:
    """All ``RESUME_FIELDS`` declared along *cls*'s MRO — the attributes
    captured verbatim into a durable line and restored on resume."""
    return _manifest_union(cls, "RESUME_FIELDS")


def volatile_fields(cls: Type) -> Tuple[str, ...]:
    """All ``VOLATILE_FIELDS`` declared along *cls*'s MRO — attributes
    deliberately rebuilt on restart (engine handles, caches, bound
    references) and excluded from capture/pickling."""
    return _manifest_union(cls, "VOLATILE_FIELDS")


def resume_components(cls: Type) -> Tuple[str, ...]:
    """All ``RESUME_COMPONENTS`` declared along *cls*'s MRO — sub-objects
    captured through their own ``export_state()``/manifest rather than as
    plain values."""
    return _manifest_union(cls, "RESUME_COMPONENTS")


def capture_fields(obj: Any) -> Dict[str, Any]:
    """*obj*'s ``RESUME_FIELDS`` as a dict — the one path every
    declared-list capture takes.

    An attribute no manifest of *obj*'s class lists (``RESUME_FIELDS``,
    ``VOLATILE_FIELDS`` or ``RESUME_COMPONENTS``, each over the MRO)
    would silently fall out of the durable line, so it raises
    :class:`ResumeError` naming the class and every such attribute."""
    cls = type(obj)
    fields = resume_fields(cls)
    unlisted = set(vars(obj)).difference(
        fields, volatile_fields(cls), resume_components(cls)
    )
    if unlisted:
        raise ResumeError(
            f"{cls.__name__} holds {', '.join(sorted(unlisted))}, which no "
            f"capture manifest (RESUME_FIELDS / VOLATILE_FIELDS / "
            f"RESUME_COMPONENTS) lists: a durable line would drop "
            f"{'it' if len(unlisted) == 1 else 'them'}"
        )
    return {name: getattr(obj, name) for name in fields}


def _pickles(value: Any) -> bool:
    try:
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError):
        return False
    return True


def _unpicklable(payload: Dict[str, Any]) -> str:
    """The first payload entry that does not pickle, with the attribute
    of it that does not, when it is an object with a state dict."""
    for name, value in payload.items():
        if _pickles(value):
            continue
        getstate = getattr(value, "__getstate__", None)
        if getstate is not None:
            state = getstate()
        else:
            state = getattr(value, "__dict__", None)
        if isinstance(state, dict):
            for attr, item in state.items():
                if not _pickles(item):
                    return f"{name!r} ({type(value).__name__}.{attr})"
        return repr(name)
    return "?"


class DurableLine:
    """One serialised recovery line (see module docstring for the format)."""

    def __init__(self, meta: Dict[str, Any], blob: bytes) -> None:
        #: the payload's ``meta`` dict, kept unpickled for cheap inspection
        #: (scheme/app names, seed, rank count, halt time).
        self.meta = meta
        self._blob = blob

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "DurableLine":
        """Pickle *payload*; a component that cannot be pickled (an
        engine-bound attribute no ``VOLATILE_FIELDS`` lists) raises
        :class:`ResumeError` naming it."""
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise ResumeError(
                f"durable line component {_unpicklable(payload)} does not "
                f"pickle: {exc}"
            ) from exc
        return cls(meta=dict(payload["meta"]), blob=blob)

    def payload(self) -> Dict[str, Any]:
        """The full captured runtime state (unpickled fresh per call, so
        two restarts from one line never share mutable objects)."""
        return pickle.loads(self._blob)

    @property
    def nbytes(self) -> int:
        return len(self._blob)

    # -- disk round trip -----------------------------------------------------

    def save(self, path: str) -> str:
        """Atomically write the framed line to *path* (temp + replace: a
        crash mid-write leaves either the old file or nothing, never a
        torn frame)."""
        path = os.fspath(path)
        frame = (
            LINE_MAGIC
            + _HEADER.pack(LINE_VERSION, zlib.crc32(self._blob) & 0xFFFFFFFF)
            + self._blob
        )
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(frame)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: str) -> "DurableLine":
        """Read and validate a framed line; raises :class:`ResumeError` on
        any damage (missing, short, bad magic/version, CRC mismatch,
        unpicklable payload)."""
        path = os.fspath(path)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ResumeError(f"cannot read recovery line {path!r}: {exc}") from exc
        header_len = len(LINE_MAGIC) + _HEADER.size
        if len(raw) < header_len:
            raise ResumeError(
                f"recovery line {path!r} is truncated "
                f"({len(raw)}B < {header_len}B header)"
            )
        if raw[: len(LINE_MAGIC)] != LINE_MAGIC:
            raise ResumeError(f"{path!r} is not a recovery line (bad magic)")
        version, crc = _HEADER.unpack(
            raw[len(LINE_MAGIC) : header_len]
        )
        if version != LINE_VERSION:
            # refused before unpickling: a stale payload may name classes
            # this code no longer has
            raise ResumeError(
                f"recovery line {path!r} has version {version}, "
                f"expected {LINE_VERSION}"
            )
        blob = raw[header_len:]
        if (zlib.crc32(blob) & 0xFFFFFFFF) != crc:
            raise ResumeError(
                f"recovery line {path!r} failed its CRC check "
                f"(torn or corrupted write)"
            )
        try:
            payload = pickle.loads(blob)
            meta = dict(payload["meta"])
        except Exception as exc:
            raise ResumeError(
                f"recovery line {path!r} payload does not deserialise: {exc}"
            ) from exc
        line = cls(meta=meta, blob=blob)
        return line

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DurableLine scheme={self.meta.get('scheme')!r} "
            f"t={self.meta.get('halted_at')} {self.nbytes}B>"
        )
