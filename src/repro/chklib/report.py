"""What one run measured: :class:`RunReport` and its :class:`RecoveryEvent`s.

Plain data with a JSON round trip (:meth:`RunReport.to_dict` /
:meth:`RunReport.from_dict`) — the experiment grid's on-disk result
cache, which is also its resume record, stores these dicts. The module
imports nothing of the simulator, so a command whose every cell is a
cache hit reads its reports without loading the runtime that produced
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List

__all__ = ["RunReport", "RecoveryEvent"]


def _plain(value: Any) -> Any:
    """Normalise *value* into plain JSON-serialisable Python types.

    NumPy scalars become their Python equivalents, tuples become lists
    and mapping keys become strings — so a serialised report is stable
    JSON regardless of which numeric types the application produced.
    """
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if type(value).__module__.startswith("numpy"):
        if getattr(value, "ndim", 0) > 0:  # arrays: element lists
            return _plain(value.tolist())
        return _plain(value.item() if hasattr(value, "item") else value)
    return value


def _int_keyed(mapping: Dict[str, Any]) -> Dict[int, Any]:
    return {int(k): v for k, v in mapping.items()}


@dataclass
class RecoveryEvent:
    """What one crash + rollback cost."""

    crash_time: float
    line_indices: Dict[int, int]
    rollback_checkpoints: Dict[int, int]  #: checkpoints lost per rank
    lost_time: Dict[int, float]  #: sim-seconds of work discarded per rank
    replayed_messages: int
    duration: float  #: crash -> all drivers restarted
    domino_extent: float  #: fraction of ranks pushed to the initial state
    #: checkpoints quarantined while recovering (corrupt or unreadable).
    quarantined: int = 0
    #: restore-read retries spent before the line could be materialised.
    restore_retries: int = 0
    #: the restored line satisfied the *scheme's* recoverability
    #: requirement (same committed round for coordinated, transitless for
    #: unlogged independent, replayable logs for logged independent) —
    #: always True for sound schemes; recorded so tests can assert it.
    line_consistent: bool = True

    # -- serialization (the experiment grid's on-disk result cache) ---------

    def to_dict(self) -> Dict[str, Any]:
        # not asdict(): it deep-copies every value, which _plain rebuilds anyway
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RecoveryEvent":
        return cls(
            crash_time=float(d["crash_time"]),
            line_indices=_int_keyed(d["line_indices"]),
            rollback_checkpoints=_int_keyed(d["rollback_checkpoints"]),
            lost_time=_int_keyed(d["lost_time"]),
            replayed_messages=int(d["replayed_messages"]),
            duration=float(d["duration"]),
            domino_extent=float(d["domino_extent"]),
            quarantined=int(d["quarantined"]),
            restore_retries=int(d["restore_retries"]),
            line_consistent=bool(d["line_consistent"]),
        )


def _count(counter: str, kind: type = int) -> property:
    """A read-only view of ``counters[counter]``, 0 if never added to."""
    return property(lambda self: kind(self.counters.get(counter, 0)))


@dataclass
class RunReport:
    """Everything measured in one run. A field stores what is not a count;
    each named count below is a read-only view of its counter."""

    app: str
    scheme: str
    n_nodes: int
    seed: int
    sim_time: float
    result: Any
    #: total app-blocked time, summed per rank (``chk.blocked_time`` sums
    #: the same charges in event order, so it can differ in the last bits)
    blocked_time: float
    storage_peak_bytes: int
    storage_peak_checkpoints: int
    storage_final_bytes: int
    counters: Dict[str, float] = field(default_factory=dict)
    recoveries: List[RecoveryEvent] = field(default_factory=list)

    checkpoints_taken = _count("chk.cuts")
    checkpoints_committed = _count("chk.commits")
    storage_bytes_written = _count("storage.bytes_written", float)
    control_messages = _count("net.control_messages")
    control_bytes = _count("net.control_bytes")
    app_messages = _count("net.app_messages")
    app_bytes = _count("net.app_bytes")
    storage_write_faults = _count("storage.write_faults")  #: injected, transient
    storage_read_faults = _count("storage.read_faults")  #: injected, transient
    storage_write_retries = _count("storage.write_retries")
    storage_read_retries = _count("storage.read_retries")
    rounds_aborted = _count("chk.rounds_aborted")  #: 2PC rounds aborted cleanly
    ckpt_writes_failed = _count("chk.ckpt_writes_failed")  #: dropped after retries

    @property
    def checkpoints_quarantined(self) -> int:
        """Records excluded as corrupt or unreadable, over all recoveries."""
        return sum(ev.quarantined for ev in self.recoveries)

    # -- serialization (the experiment grid's on-disk result cache) ---------

    def to_dict(self) -> Dict[str, Any]:
        """The stored fields as plain JSON, in declaration order (each
        count is read back from ``counters``); :meth:`from_dict` reverses
        it."""
        d = {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
        d["recoveries"] = [ev.to_dict() for ev in self.recoveries]
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunReport":
        """Rebuild a report from its stored fields (type-normalised: every
        number is plain Python, so a cached report compares and renders
        identically to a fresh one)."""
        return cls(
            app=str(d["app"]),
            scheme=str(d["scheme"]),
            n_nodes=int(d["n_nodes"]),
            seed=int(d["seed"]),
            sim_time=float(d["sim_time"]),
            result=d["result"],
            blocked_time=float(d["blocked_time"]),
            storage_peak_bytes=int(d["storage_peak_bytes"]),
            storage_peak_checkpoints=int(d["storage_peak_checkpoints"]),
            storage_final_bytes=int(d["storage_final_bytes"]),
            counters={str(k): v for k, v in d["counters"].items()},
            recoveries=[RecoveryEvent.from_dict(ev) for ev in d["recoveries"]],
        )
