"""Discrete-event simulation kernel (events, processes, resources, tracing).

This is a self-contained mini event-driven simulator in the style of SimPy,
specialised for deterministic reproduction runs: strict ``(time, priority,
sequence)`` ordering, FIFO resources and named random substreams.
"""

from .engine import LOW, NORMAL, URGENT, Engine
from .errors import (
    Deadlock,
    EventAlreadyTriggered,
    Interrupt,
    NegativeDelay,
    SimulationError,
    StopProcess,
)
from .events import AllOf, AnyOf, Event, Timeout
from .kernel import (
    BACKEND_ENV,
    DEFAULT_BACKEND,
    available_backends,
    resolve_backend,
)
from .process import Process
from .resources import Request, Resource, Store, StoreGet
from .rng import RngStreams, derive_seed
from .tracing import NullTracer, Span, Tracer, make_tracer

__all__ = [
    "Engine",
    "BACKEND_ENV",
    "DEFAULT_BACKEND",
    "available_backends",
    "resolve_backend",
    "URGENT",
    "NORMAL",
    "LOW",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Process",
    "Resource",
    "Request",
    "Store",
    "StoreGet",
    "RngStreams",
    "derive_seed",
    "Tracer",
    "NullTracer",
    "make_tracer",
    "Span",
    "SimulationError",
    "Deadlock",
    "Interrupt",
    "NegativeDelay",
    "StopProcess",
    "EventAlreadyTriggered",
]
