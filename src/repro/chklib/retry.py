"""Bounded retry-with-backoff around stable-storage operations.

Storage operations can fail transiently when a
:class:`~repro.fault.injection.StorageFaultInjector` is active. These
helpers wrap :meth:`StableStorage.write` / :meth:`StableStorage.read` in
the run's retry budget (``FaultModel.max_retries``): each failed attempt
pays its (partial) transfer time, then the caller backs off
(:data:`BACKOFF_BASE`, growing :data:`BACKOFF_FACTOR`-fold per further
retry) and tries again, up to ``max_retries`` times. When the budget is
exhausted the final :class:`~repro.core.errors.StorageFault` propagates
and the caller decides the degradation path (coordinated aborts the round,
independent drops the local checkpoint, recovery quarantines the record).

A crash :class:`~repro.core.errors.Interrupt` is *not* retried — it
propagates immediately so the owning process dies with the machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from ..core.errors import StorageFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.tracing import Tracer
    from ..machine.node import Node
    from ..machine.storage import StableStorage

__all__ = ["stable_write", "stable_read"]

#: delay before the first retry (seconds).
BACKOFF_BASE = 0.05
#: multiplier applied per further retry (exponential backoff).
BACKOFF_FACTOR = 2.0


def _retrying(
    attempt: Callable[[], Generator[Any, Any, None]],
    storage: "StableStorage",
    max_retries: int,
    tracer: Optional["Tracer"],
    counter: str,
) -> Generator[Any, Any, None]:
    """Run *attempt* until it succeeds; raises the last
    :class:`StorageFault` once *max_retries* retries are spent."""
    retries = 0
    while True:
        try:
            yield from attempt()
            return
        except StorageFault:
            if retries >= max_retries:
                raise
            if tracer is not None:
                tracer.add(counter)
            # pooled backoff nap
            yield storage.engine.delay(BACKOFF_BASE * BACKOFF_FACTOR**retries)
            retries += 1


def stable_write(
    storage: "StableStorage",
    node: "Node",
    nbytes: float,
    max_retries: int,
    tag: str = "",
    tracer: Optional["Tracer"] = None,
    background: bool = False,
) -> Generator[Any, Any, None]:
    """Write with retry-with-backoff."""
    return _retrying(
        lambda: storage.write(node, nbytes, tag=tag, background=background),
        storage,
        max_retries,
        tracer,
        "storage.write_retries",
    )


def stable_read(
    storage: "StableStorage",
    node: "Node",
    nbytes: float,
    max_retries: int,
    tag: str = "",
    tracer: Optional["Tracer"] = None,
) -> Generator[Any, Any, None]:
    """Read with retry-with-backoff."""
    return _retrying(
        lambda: storage.read(node, nbytes, tag=tag),
        storage,
        max_retries,
        tracer,
        "storage.read_retries",
    )
