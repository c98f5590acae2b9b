"""The fault model: what can fail, when, and how hard we fight back.

Whole-machine crashes are the classic failure, but real
checkpoint/restart stacks spend most of their robustness budget
elsewhere: failed or torn stable-storage writes, and silently corrupted
checkpoint images (cf. the multi-level validation/retry machinery of
thread-based MPI checkpointing runtimes). :class:`FaultModel` covers two
axes:

* **machine crashes** — the paper's failure: the whole application goes
  down (every rank loses its volatile state; stable storage and local
  disks survive);
* **stable-storage faults** — transient write/read failures (probabilistic
  or scheduled per operation), plus silent corruption of stored checkpoint
  images, detected only by checksum validation at recovery time.

``max_retries`` configures the defensive side: bounded retry-with-backoff
on failed storage operations. Schemes retry writes (coordinated aborts the
2PC round cleanly when a rank exhausts its retries; independent schemes
drop the local checkpoint and carry on), and recovery retries restore
reads before quarantining a checkpoint and falling back to an older
recovery line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

from .plans import CrashSchedule

__all__ = ["StorageFaultSpec", "FaultModel"]


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
class FaultModel:
    """Everything that goes wrong in one run, and the retry budget."""

    #: whole-machine crash times (all ranks fail; disks survive), or a
    #: :class:`~repro.fault.plans.CrashSchedule` left undrawn until the run
    #: reads it.
    machine_crash_times: Union[Tuple[float, ...], CrashSchedule] = ()
    #: stable-storage fault injection (None = storage never fails).
    storage: StorageFaultSpec = field(default_factory=StorageFaultSpec)
    #: retries a failed storage operation gets after its first attempt
    #: (0 = fail immediately).
    max_retries: int = 4

    def __post_init__(self) -> None:
        if not isinstance(self.machine_crash_times, CrashSchedule):
            times = tuple(sorted(float(t) for t in self.machine_crash_times))
            for t in times:
                if t != t or t < 0:  # NaN or negative
                    raise ValueError(
                        f"machine crash time must be non-negative, got {t!r}"
                    )
            object.__setattr__(self, "machine_crash_times", times)
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    @classmethod
    def machine_crash(cls, at: float, **kw) -> "FaultModel":
        return cls(machine_crash_times=(float(at),), **kw)
