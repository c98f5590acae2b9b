"""Exception hierarchy for the simulation kernel.

Every error raised by :mod:`repro.core` derives from :class:`SimulationError`
so callers can catch kernel problems without masking application bugs.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "SimulationError",
    "Deadlock",
    "Interrupt",
    "NegativeDelay",
    "StopProcess",
    "StorageFault",
    "SizeOnlyError",
    "EventAlreadyTriggered",
    "InvariantViolation",
    "VerificationError",
]


class SimulationError(Exception):
    """Base class for all simulation-kernel errors."""


class NegativeDelay(SimulationError, ValueError):
    """A scheduling delay was negative (events cannot fire in the past).

    Subclasses :class:`ValueError` for backwards compatibility: callers
    have always been able to catch a bad ``timeout``/``schedule`` delay
    as a ``ValueError``. This class is the single source of truth for the
    error's type and message; the three validation points
    (``Timeout.__init__``, :meth:`Engine.schedule`, :meth:`Engine.delay`)
    inline the ``delay < 0`` comparison and raise it directly.
    """

    def __init__(self, delay: Any) -> None:
        super().__init__(f"cannot schedule into the past (delay={delay!r})")
        self.delay = delay


class Deadlock(SimulationError):
    """Raised by :meth:`repro.core.engine.Engine.run` when processes remain
    but no future event exists (every live process waits forever)."""

    def __init__(self, waiting: int, now: float) -> None:
        super().__init__(
            f"deadlock at t={now:.6f}: {waiting} process(es) blocked with an "
            f"empty event queue"
        )
        self.waiting = waiting
        self.now = now


class Interrupt(SimulationError):
    """Thrown *into* a process by :meth:`Process.interrupt`.

    The interrupted process receives this exception at its current ``yield``
    and may handle it (e.g. a checkpointer thread told to abort a write).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(f"interrupted: {cause!r}")
        self.cause = cause


class StopProcess(SimulationError):
    """Raised inside a process generator to terminate it early with a value.

    Equivalent to ``return value`` but usable from helper sub-generators
    without threading the return through every level.
    """

    def __init__(self, value: Any = None) -> None:
        super().__init__("process stopped")
        self.value = value


class StorageFault(SimulationError):
    """A stable-storage operation failed transiently (injected fault).

    Raised out of :meth:`repro.machine.storage.StableStorage.write` /
    ``read`` when the fault injector decides the operation fails. Callers
    (schemes, the recovery path) are expected to retry with backoff and to
    degrade cleanly when retries are exhausted.
    """

    def __init__(self, op: str, tag: str = "", partial_bytes: float = 0.0) -> None:
        super().__init__(
            f"storage {op} fault"
            + (f" [{tag}]" if tag else "")
            + f" after {partial_bytes:.0f}B"
        )
        self.op = op
        self.tag = tag
        self.partial_bytes = partial_bytes


class SizeOnlyError(SimulationError):
    """Bytes were asked of a checkpoint image or recorded message that
    kept only its size.

    A run nothing can ever restore (no fault model) holds ``nbytes`` and
    a CRC per image and ``size`` per logged message, never the bytes;
    restoring or replaying one is a bug in the caller, not a recoverable
    condition."""


class EventAlreadyTriggered(SimulationError):
    """An event was succeeded or failed twice."""


class InvariantViolation(SimulationError):
    """An internal correctness invariant did not hold at runtime.

    Used instead of bare ``assert`` for runtime validation in simulation
    code: unlike ``assert``, these checks survive ``python -O`` and carry a
    structured description of what was violated. The static analyzer's
    sim-hygiene pass (``python -m repro.verify analyze``) forbids bare
    non-``isinstance`` asserts in :mod:`repro` precisely so correctness
    checks end up here.
    """

    def __init__(self, what: str, **context: Any) -> None:
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(context.items()))
        super().__init__(what + (f" [{detail}]" if detail else ""))
        self.what = what
        self.context = context


class VerificationError(SimulationError):
    """The protocol verification subsystem found a violated invariant.

    Raised by the trace invariant engine when run verification is
    enabled, and by ``check_runtime`` for a run with nothing to audit.
    Carries the individual violations for reporting.
    """

    def __init__(self, summary: str, violations: Any = ()) -> None:
        super().__init__(summary)
        self.violations = list(violations)
