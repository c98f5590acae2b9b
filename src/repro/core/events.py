"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic event/process co-routine design (as in SimPy):

* an :class:`Event` is a one-shot occurrence with a value (or an exception);
  callbacks run when the engine pops it off the event heap;
* a process (:class:`repro.core.process.Process`) is a generator that yields
  events; the engine resumes it with the event's value when the event fires.

Events are deliberately tiny: the hot loop of a simulation run touches these
objects millions of times, so attribute access is kept flat and ``__slots__``
is used throughout.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from heapq import heappush

from .errors import EventAlreadyTriggered, NegativeDelay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Engine

__all__ = ["Event", "Timeout", "AnyOf", "AllOf", "PENDING"]


class _PendingType:
    """Sentinel for "event has no value yet"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _PendingType()


class Event:
    """A one-shot occurrence in simulated time.

    Lifecycle::

        pending --succeed/fail--> triggered --engine pops--> processed

    ``callbacks`` is a list while the event is pending or triggered and
    ``None`` once processed; this doubles as the "already processed" flag,
    mirroring the convention used by SimPy so that process resumption can
    cheaply detect late subscriptions.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "defused")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: failed events whose exception was never retrieved re-raise at the
        #: end of the run unless defused (a process waiting on them defuses).
        self.defused = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the engine has run the callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise AttributeError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = 1) -> "Event":
        """Trigger the event successfully and schedule its callbacks *now*.

        The delay-0 scheduling is inlined (this is the single hottest
        call in the kernel): default-priority triggers append to the
        engine's FIFO fast lane, others go through the heap.
        """
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        engine = self.engine
        engine._seq = seq = engine._seq + 1
        if priority == 1 and engine._fast_lane:
            engine._lane.append((engine._now, seq, self))
        else:
            heappush(engine._heap, (engine._now, priority, seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = 1) -> "Event":
        """Trigger the event with an exception; waiters see it raised."""
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        engine = self.engine
        engine._seq = seq = engine._seq + 1
        if priority == 1 and engine._fast_lane:
            engine._lane.append((engine._now, seq, self))
        else:
            heappush(engine._heap, (engine._now, priority, seq, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror another event's outcome into this one (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- composition ------------------------------------------------------

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.engine, [self, other])

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.engine, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Born triggered; negative delays raise
    :class:`repro.core.errors.NegativeDelay` (the single validation point
    shared with :meth:`Engine.schedule`).
    """

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        # Event.__init__ and the scheduling are inlined — Timeouts are
        # allocated on the hot path of every wire transfer and nap.
        self.engine = engine
        self.callbacks = []
        self._ok = True
        self._value = value
        self.defused = False
        self.delay = delay = float(delay)
        if delay < 0:
            raise NegativeDelay(delay)
        engine._seq = seq = engine._seq + 1
        if delay == 0.0 and engine._fast_lane:
            engine._lane.append((engine._now, seq, self))
        else:
            heappush(engine._heap, (engine._now + delay, 1, seq, self))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Timeout delay={self.delay!r}>"


class _Condition(Event):
    """Base for AnyOf/AllOf: fires when enough member events have fired."""

    __slots__ = ("events", "_count")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self.events: tuple[Event, ...] = tuple(events)
        self._count = 0
        if any(ev.engine is not engine for ev in self.events):
            raise ValueError("condition mixes events from different engines")
        if not self.events:
            # Vacuous truth: an empty condition is immediately satisfied.
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.callbacks is None:  # already processed
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* events count: a Timeout is born triggered but has
        # not "happened" until the engine pops it off the heap.
        return {ev: ev._value for ev in self.events if ev.callbacks is None}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires when the first member event fires."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class AllOf(_Condition):
    """Fires when every member event has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= len(self.events)
