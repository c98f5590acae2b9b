"""What one run measured: :class:`RunReport` and its :class:`RecoveryEvent`s.

Plain data with a JSON round trip (:meth:`RunReport.to_dict` /
:meth:`RunReport.from_dict`) — the experiment grid's on-disk result
cache, which is also its resume record, stores these dicts. The module
imports nothing of the simulator, so a command whose every cell is a
cache hit reads its reports without loading the runtime that produced
them.
"""

from __future__ import annotations

import dataclasses as _dc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

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


def _plain_fields(obj: Any) -> Dict[str, Any]:
    """The fields of dataclass *obj* by name, each made plain: what
    ``_plain(dataclasses.asdict(obj))`` gives, without ``asdict``'s deep
    copy of every value (``_plain`` builds new containers anyway)."""
    return {f.name: _plain(getattr(obj, f.name)) for f in _dc.fields(obj)}


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
    #: ranks that actually failed (all ranks for a machine crash).
    failed_ranks: Tuple[int, ...] = ()
    #: ranks whose local disks died with them (per-node failures).
    disks_lost: Tuple[int, ...] = ()
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
        return _plain_fields(self)

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
            failed_ranks=tuple(d.get("failed_ranks", ())),
            disks_lost=tuple(d.get("disks_lost", ())),
            quarantined=int(d.get("quarantined", 0)),
            restore_retries=int(d.get("restore_retries", 0)),
            line_consistent=bool(d.get("line_consistent", True)),
        )


@dataclass
class RunReport:
    """Everything measured in one run."""

    app: str
    scheme: str
    n_nodes: int
    seed: int
    sim_time: float
    result: Any
    checkpoints_taken: int
    checkpoints_committed: int
    blocked_time: float  #: total app-blocked time across ranks
    storage_bytes_written: float
    storage_peak_bytes: int
    storage_peak_checkpoints: int
    storage_final_bytes: int
    control_messages: int
    control_bytes: int
    app_messages: int
    app_bytes: int
    counters: Dict[str, float] = field(default_factory=dict)
    recoveries: List[RecoveryEvent] = field(default_factory=list)
    # -- resilience accounting (fault-injection subsystem) --------------------
    storage_write_faults: int = 0  #: injected transient write failures
    storage_read_faults: int = 0  #: injected transient read failures
    storage_write_retries: int = 0  #: write attempts repeated after a fault
    storage_read_retries: int = 0  #: read attempts repeated after a fault
    rounds_aborted: int = 0  #: coordinated 2PC rounds aborted cleanly
    ckpt_writes_failed: int = 0  #: checkpoint writes dropped after retries
    checkpoints_quarantined: int = 0  #: records excluded as corrupt/unreadable

    # -- serialization (the experiment grid's on-disk result cache) ---------

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON dict round-trippable through :meth:`from_dict`."""
        d = _plain_fields(self)
        d["recoveries"] = [ev.to_dict() for ev in self.recoveries]
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunReport":
        """Rebuild a report (type-normalised: every number is plain
        Python, so a cached report compares and renders identically to a
        fresh one)."""
        return cls(
            app=str(d["app"]),
            scheme=str(d["scheme"]),
            n_nodes=int(d["n_nodes"]),
            seed=int(d["seed"]),
            sim_time=float(d["sim_time"]),
            result=d["result"],
            checkpoints_taken=int(d["checkpoints_taken"]),
            checkpoints_committed=int(d["checkpoints_committed"]),
            blocked_time=float(d["blocked_time"]),
            storage_bytes_written=float(d["storage_bytes_written"]),
            storage_peak_bytes=int(d["storage_peak_bytes"]),
            storage_peak_checkpoints=int(d["storage_peak_checkpoints"]),
            storage_final_bytes=int(d["storage_final_bytes"]),
            control_messages=int(d["control_messages"]),
            control_bytes=int(d["control_bytes"]),
            app_messages=int(d["app_messages"]),
            app_bytes=int(d["app_bytes"]),
            counters={str(k): v for k, v in d.get("counters", {}).items()},
            recoveries=[
                RecoveryEvent.from_dict(ev) for ev in d.get("recoveries", [])
            ],
            storage_write_faults=int(d.get("storage_write_faults", 0)),
            storage_read_faults=int(d.get("storage_read_faults", 0)),
            storage_write_retries=int(d.get("storage_write_retries", 0)),
            storage_read_retries=int(d.get("storage_read_retries", 0)),
            rounds_aborted=int(d.get("rounds_aborted", 0)),
            ckpt_writes_failed=int(d.get("ckpt_writes_failed", 0)),
            checkpoints_quarantined=int(d.get("checkpoints_quarantined", 0)),
        )
