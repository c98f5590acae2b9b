"""Discrete-event simulation kernel (events, processes, resources, tracing).

This is a self-contained mini event-driven simulator in the style of SimPy,
specialised for deterministic reproduction runs: strict ``(time, priority,
sequence)`` ordering, FIFO resources and named random substreams.
"""

from .._lazy import lazy_surface

#: name -> the submodule defining it, imported on first use.
_LAZY = {
    "Engine": "engine",
    "BACKEND_ENV": "kernel",
    "DEFAULT_BACKEND": "kernel",
    "available_backends": "kernel",
    "resolve_backend": "kernel",
    "URGENT": "engine",
    "NORMAL": "engine",
    "LOW": "engine",
    "Event": "events",
    "Timeout": "events",
    "AnyOf": "events",
    "AllOf": "events",
    "Process": "process",
    "Resource": "resources",
    "Request": "resources",
    "RngStreams": "rng",
    "derive_seed": "rng",
    "Tracer": "tracing",
    "SimulationError": "errors",
    "Deadlock": "errors",
    "Interrupt": "errors",
    "NegativeDelay": "errors",
    "StopProcess": "errors",
    "EventAlreadyTriggered": "errors",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_surface(__name__, _LAZY)
