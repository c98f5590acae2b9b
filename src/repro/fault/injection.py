"""Deterministic stable-storage fault injection.

A :class:`StorageFaultInjector` is installed into the global
:class:`~repro.machine.storage.StableStorage` server by the runtime when
the run's :class:`~repro.fault.model.FaultModel` declares storage faults.
Every write/read attempt asks the injector for a verdict *before* the
transfer starts; a failing operation completes a deterministic fraction of
the transfer (a torn write pays real time) and then raises
:class:`~repro.core.errors.StorageFault`.

Silent corruption is decided per *checkpoint* rather than per transfer:
schemes call :meth:`corrupts_checkpoint` when a checkpoint write finishes,
and a True verdict flips the stored image's checksum — nobody notices
until recovery validates the record.

All randomness comes from one named substream of the run's master seed
(via :class:`~repro.core.rng.RngStreams`), and the simulation engine is
deterministic, so injection sequences are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .model import StorageFaultSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["OpVerdict", "StorageFaultInjector"]

#: name of the RNG substream the injector draws from.
RNG_STREAM = "fault.storage"


@dataclass(frozen=True)
class OpVerdict:
    """Outcome decided for one storage operation before it runs."""

    fail: bool = False
    #: fraction of the transfer completed before the failure (torn write).
    fraction: float = 0.0


_OK = OpVerdict()


class StorageFaultInjector:
    """Per-run oracle deciding which storage operations fail or corrupt."""

    def __init__(self, spec: StorageFaultSpec, rng: "np.random.Generator") -> None:
        self.spec = spec
        self._rng = rng
        # attempt counters (1-based at decision time; retries count anew):
        # decision state, since ``fail_*_at`` index them. The faults they
        # inject are counted by the storage tier and the scheme.
        self.write_attempts = 0
        self.read_attempts = 0

    # -- per-operation verdicts ----------------------------------------------

    def on_write(self) -> OpVerdict:
        self.write_attempts += 1
        fail = self.write_attempts in self.spec.fail_writes_at
        if not fail and self.spec.write_fail_p > 0.0:
            fail = float(self._rng.random()) < self.spec.write_fail_p
        if not fail:
            return _OK
        return OpVerdict(fail=True, fraction=float(self._rng.random()))

    def on_read(self) -> OpVerdict:
        self.read_attempts += 1
        fail = self.read_attempts in self.spec.fail_reads_at
        if not fail and self.spec.read_fail_p > 0.0:
            fail = float(self._rng.random()) < self.spec.read_fail_p
        if not fail:
            return _OK
        return OpVerdict(fail=True, fraction=float(self._rng.random()))

    # -- per-checkpoint silent corruption ------------------------------------

    def corrupts_checkpoint(self, rank: int, index: int) -> bool:
        """Decide whether the just-completed checkpoint write rotted."""
        corrupt = (rank, index) in self.spec.corrupt_ckpts
        if not corrupt and self.spec.corrupt_p > 0.0:
            corrupt = float(self._rng.random()) < self.spec.corrupt_p
        return corrupt

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<StorageFaultInjector writes={self.write_attempts} "
            f"reads={self.read_attempts}>"
        )


def make_injector(spec: StorageFaultSpec, rngs) -> Optional[StorageFaultInjector]:
    """An injector for *spec*, or None when the spec injects nothing."""
    if not spec.any_faults:
        return None
    return StorageFaultInjector(spec, rngs.get(RNG_STREAM))
