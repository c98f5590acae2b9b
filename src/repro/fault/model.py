"""The fault model: what can fail, when, and how hard we fight back.

Whole-machine crashes are the classic failure, but real
checkpoint/restart stacks spend most of their robustness budget
elsewhere: partial node failures, failed or torn stable-storage writes,
and silently corrupted checkpoint images (cf. the multi-level
validation/retry machinery of thread-based MPI checkpointing runtimes).
:class:`FaultModel` covers three axes:

* **machine crashes** — the classic whole-application failure (every rank
  loses its volatile state; stable storage and local disks survive);
* **per-node crashes** — a subset of ranks fails at a scheduled time. The
  application still restarts as a gang (the paper's recovery semantics),
  but a crashed *node* is replaced hardware: its private local disk is
  lost, so under two-level storage only checkpoints already trickled to
  the global server survive for the failed ranks;
* **stable-storage faults** — transient write/read failures (probabilistic
  or scheduled per operation), plus silent corruption of stored checkpoint
  images, detected only by checksum validation at recovery time.

:class:`RetryPolicy` configures the defensive side: bounded
retry-with-backoff on failed storage operations. Schemes retry writes
(coordinated aborts the 2PC round cleanly when a rank exhausts its
retries; independent schemes drop the local checkpoint and carry on), and
recovery retries restore reads before quarantining a checkpoint and
falling back to an older recovery line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .plans import CrashSchedule

__all__ = [
    "RetryPolicy",
    "StorageFaultSpec",
    "CrashEvent",
    "FaultModel",
]


def _clean_times(times: Sequence[float], what: str) -> Tuple[float, ...]:
    cleaned = tuple(float(t) for t in times)
    for t in cleaned:
        if t != t or t < 0:  # NaN or negative
            raise ValueError(f"{what} must be non-negative, got {t!r}")
    return tuple(sorted(cleaned))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for failed stable-storage operations."""

    #: retries after the first failed attempt (0 = fail immediately).
    max_retries: int = 4
    #: delay before the first retry (seconds).
    backoff_base: float = 0.05
    #: multiplier applied per subsequent retry (exponential backoff).
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before retry *attempt* (0-based)."""
        return self.backoff_base * (self.backoff_factor ** attempt)


@dataclass(frozen=True)
class StorageFaultSpec:
    """Stable-storage fault injection (global server only).

    Transient operation failures abort the transfer partway (a torn
    write); silent corruption lets the write complete but flips the stored
    image so its checksum no longer validates. All randomness draws from a
    dedicated named substream of the run's master seed, so injection is
    fully deterministic per seed.
    """

    #: per-operation probability that a write fails transiently.
    write_fail_p: float = 0.0
    #: per-operation probability that a read fails transiently.
    read_fail_p: float = 0.0
    #: probability that a completed checkpoint write is silently corrupted.
    corrupt_p: float = 0.0
    #: scheduled failures: 1-based global write-attempt indices that fail.
    fail_writes_at: Tuple[int, ...] = ()
    #: scheduled failures: 1-based global read-attempt indices that fail.
    fail_reads_at: Tuple[int, ...] = ()
    #: scheduled silent corruption of specific checkpoints: (rank, index).
    corrupt_ckpts: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for name in ("write_fail_p", "read_fail_p", "corrupt_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        object.__setattr__(
            self, "fail_writes_at", tuple(int(i) for i in self.fail_writes_at)
        )
        object.__setattr__(
            self, "fail_reads_at", tuple(int(i) for i in self.fail_reads_at)
        )
        object.__setattr__(
            self,
            "corrupt_ckpts",
            tuple((int(r), int(i)) for r, i in self.corrupt_ckpts),
        )

    @property
    def any_faults(self) -> bool:
        return bool(
            self.write_fail_p
            or self.read_fail_p
            or self.corrupt_p
            or self.fail_writes_at
            or self.fail_reads_at
            or self.corrupt_ckpts
        )


@dataclass(frozen=True)
class CrashEvent:
    """One scheduled failure: which ranks die, and whose private local
    disks die with them (node replacement vs. machine reboot)."""

    time: float
    ranks: Tuple[int, ...]
    #: ranks whose local disks are lost (per-node failures only; a
    #: whole-machine crash reboots but keeps the disks).
    disks_lost: Tuple[int, ...] = ()


@dataclass(frozen=True)
class FaultModel:
    """Everything that goes wrong in one run, and the retry knobs."""

    #: whole-machine crash times (all ranks fail; disks survive), or a
    #: :class:`~repro.fault.plans.CrashSchedule` left undrawn until
    #: :meth:`crash_events` reads it.
    machine_crash_times: Union[Tuple[float, ...], CrashSchedule] = ()
    #: per-rank crash schedules ``{rank: (t, ...)}`` (failed ranks lose
    #: their local disks; the application still restarts as a gang).
    node_crash_times: Mapping[int, Sequence[float]] = field(default_factory=dict)
    #: stable-storage fault injection (None = storage never fails).
    storage: StorageFaultSpec = field(default_factory=StorageFaultSpec)
    #: retry/backoff behaviour for failed storage operations.
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if not isinstance(self.machine_crash_times, CrashSchedule):
            object.__setattr__(
                self,
                "machine_crash_times",
                _clean_times(self.machine_crash_times, "machine crash time"),
            )
        norm: Dict[int, Tuple[float, ...]] = {}
        for rank, times in dict(self.node_crash_times).items():
            if int(rank) < 0:
                raise ValueError(f"node rank must be >= 0, got {rank!r}")
            norm[int(rank)] = _clean_times(times, f"node {rank} crash time")
        object.__setattr__(self, "node_crash_times", norm)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def machine_crash(cls, at: float, **kw) -> "FaultModel":
        return cls(machine_crash_times=(float(at),), **kw)

    @classmethod
    def node_crash(cls, rank: int, at: float, **kw) -> "FaultModel":
        return cls(node_crash_times={int(rank): (float(at),)}, **kw)

    # -- queries --------------------------------------------------------------

    def crash_events(self, n_ranks: int) -> List[CrashEvent]:
        """The merged, time-ordered failure schedule.

        Same-time failures merge into one event (simultaneous node
        crashes take their union of ranks; a machine crash at the same
        instant subsumes everything but keeps ``node_failure`` for the
        ranks whose disks die).
        """
        for rank in self.node_crash_times:
            if rank >= n_ranks:
                raise ValueError(
                    f"node crash scheduled for rank {rank} on a "
                    f"{n_ranks}-rank machine"
                )
        by_time: Dict[float, Dict[str, set]] = {}
        for t in self.machine_crash_times:
            by_time.setdefault(t, {"ranks": set(), "disks": set()})["ranks"].update(
                range(n_ranks)
            )
        for rank, times in self.node_crash_times.items():
            for t in times:
                slot = by_time.setdefault(t, {"ranks": set(), "disks": set()})
                slot["ranks"].add(rank)
                slot["disks"].add(rank)
        return [
            CrashEvent(
                time=t,
                ranks=tuple(sorted(slot["ranks"])),
                disks_lost=tuple(sorted(slot["disks"])),
            )
            for t, slot in sorted(by_time.items())
        ]
