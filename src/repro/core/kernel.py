"""Kernel backend selection: one engine, with or without the fast lane.

:class:`~repro.core.engine.Engine` has one selectable variation, where
delay-0 ``NORMAL`` events queue:

``reference``
    Every event goes through one ``(time, priority, seq)`` heap, popped
    one at a time. The ordering oracle: the parity suite
    (``tests/core/test_backends.py``) requires ``twotier`` to produce
    byte-identical firing order — and therefore byte-identical tables,
    traces and recovery lines — against it.

``twotier``
    The default, what every command runs: delay-0 ``NORMAL`` events on a
    FIFO fast lane, future/priority events on the heap, head-to-head
    ``(time, priority, seq)`` arbitration (see :mod:`repro.core.engine`
    for why the lane cannot reorder).

Selection: ``Engine(backend=...)`` wins over ``REPRO_KERNEL_BACKEND``
(inherited by experiment worker processes), which wins over the
``twotier`` default. Any other name is an error from either source.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

__all__ = [
    "BACKEND_ENV",
    "DEFAULT_BACKEND",
    "available_backends",
    "resolve_backend",
]

#: environment variable naming the backend for new engines.
BACKEND_ENV = "REPRO_KERNEL_BACKEND"

DEFAULT_BACKEND = "twotier"

_BACKENDS = ("reference", "twotier")


def available_backends() -> Tuple[str, ...]:
    """The selectable backend names, reference first."""
    return _BACKENDS


def resolve_backend(backend: Optional[str] = None) -> str:
    """The backend name an ``Engine(backend=backend)`` call selects."""
    if backend is not None:
        name = str(backend).strip().lower()
        if name not in _BACKENDS:
            raise ValueError(
                f"unknown kernel backend {backend!r}; "
                f"available: {', '.join(_BACKENDS)}"
            )
        return name
    name = os.environ.get(BACKEND_ENV, "").strip().lower()
    if not name:
        return DEFAULT_BACKEND
    if name not in _BACKENDS:
        raise ValueError(
            f"{BACKEND_ENV}={name!r} names no kernel backend; "
            f"available: {', '.join(_BACKENDS)}"
        )
    return name
