"""The discrete-event simulation engine.

:class:`Engine` owns the event queue and the simulation clock. It is the only
mutable global of a simulation run; machines, networks and checkpointing
schemes all hang off one engine instance, which makes runs fully
deterministic and lets tests construct tiny worlds cheaply.

Scheduling order: events fire in ``(time, priority, seq)`` order. ``seq`` is
a monotone counter, so same-time same-priority events fire in scheduling
order — this is what makes the whole simulation reproducible without any
real-time dependence.

Two-tier queue
--------------

Protocol traffic is dominated by delay-0 ``NORMAL``-priority scheduling:
every ``Event.succeed``/``fail``, process bootstrap and condition trigger
fires "now". Those events go to a plain FIFO deque (the *fast lane*)
instead of the heap; only genuinely future (or non-default-priority)
events pay ``heappush``/``heappop``. The firing order is unchanged:

* fast-lane entries are appended as ``(now, seq, event)``; the clock never
  moves backwards and ``seq`` is monotone, so the lane is always sorted by
  the full ``(time, NORMAL, seq)`` key;
* the dispatch loop fires whichever of (heap head, lane head) has the
  smaller ``(time, priority, seq)`` key.  Sequence numbers are unique, so
  the comparison never ties.

The lane is the engine's one selectable variation (see
:mod:`repro.core.kernel`): ``twotier`` runs with it, ``reference`` sends
every event through the single heap and is the ordering oracle the parity
suite compares ``twotier`` against.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

from .errors import Deadlock, InvariantViolation, NegativeDelay, SimulationError
from .events import AllOf, Event, Timeout
from .kernel import resolve_backend
from .process import Process

__all__ = ["Engine", "URGENT", "NORMAL", "LOW"]

#: Scheduling priorities (lower fires first at equal times).
URGENT = 0
NORMAL = 1
LOW = 2

#: recycled ``engine.delay()`` events kept per engine (bounds pool memory).
_DELAY_POOL_MAX = 128


class _Delay(Event):
    """A pooled, pre-triggered delay event (see :meth:`Engine.delay`).

    Single-use from the caller's perspective: yield it immediately and do
    not keep a reference — the engine recycles the object after its
    callbacks have run, so composing it into ``AnyOf``/``AllOf`` or
    reading ``value`` later is undefined.
    """

    __slots__ = ()

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks = []
        self._ok = True
        self._value = None
        self.defused = False


class Engine:
    """Discrete-event simulation engine with a deterministic event queue.

    ``backend`` names the queue layout (``twotier`` or ``reference``);
    when omitted it comes from ``REPRO_KERNEL_BACKEND``, else ``twotier``
    — see :func:`repro.core.kernel.resolve_backend`.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_lane",
        "_seq",
        "_active_processes",
        "_fast_lane",
        "_delay_pool",
        "step_hook",
    )

    def __init__(self, backend: Optional[str] = None) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, int, Event]] = []
        #: delay-0 NORMAL-priority FIFO (see module docstring).
        self._lane: Deque[Tuple[float, int, Event]] = deque()
        self._seq = 0
        self._active_processes = 0
        #: whether delay-0 NORMAL events use the FIFO fast lane.
        self._fast_lane = resolve_backend(backend) == "twotier"
        self._delay_pool: list[_Delay] = []
        #: optional hook called as ``hook(time, event)`` before callbacks run.
        self.step_hook: Optional[Callable[[float, Event], None]] = None

    @property
    def backend(self) -> str:
        """Name of the kernel backend this engine runs on."""
        return "twotier" if self._fast_lane else "reference"

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._lane:
            t = self._lane[0][0]
            if self._heap and self._heap[0][0] < t:
                return self._heap[0][0]
            return t
        return self._heap[0][0] if self._heap else float("inf")

    @property
    def queued(self) -> int:
        """Number of scheduled-but-unprocessed events."""
        return len(self._heap) + len(self._lane)

    # -- scheduling -------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Put a triggered event on the queue ``delay`` seconds from now."""
        if delay < 0:
            raise NegativeDelay(delay)
        self._seq += 1
        if delay == 0.0 and priority == NORMAL and self._fast_lane:
            self._lane.append((self._now, self._seq, event))
        else:
            heappush(self._heap, (self._now + delay, priority, self._seq, event))

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event to be triggered manually."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def delay(self, delay: float, value: Any = None) -> Event:
        """A lightweight pooled timeout for the ``yield engine.delay(t)``
        idiom on hot paths (wire transfers, service times, backoff naps).

        Unlike :meth:`timeout` the returned event is *recycled* once its
        callbacks have run: yield it immediately, never store it, never
        compose it into ``AnyOf``/``AllOf`` (use :meth:`timeout` there).
        """
        pool = self._delay_pool
        if pool:
            ev = pool.pop()
            ev.callbacks = []
            ev._ok = True
            ev._value = value
            ev.defused = False
        else:
            ev = _Delay(self)
            ev._value = value
        if delay < 0:
            raise NegativeDelay(delay)
        self._seq = seq = self._seq + 1
        if delay == 0.0 and self._fast_lane:
            self._lane.append((self._now, seq, ev))
        else:
            heappush(self._heap, (self._now + delay, 1, seq, ev))
        return ev

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> Process:
        """Start a new simulation process driving *generator*."""
        return Process(self, generator, name=name)

    # -- run loop -----------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event (advance the clock to it)."""
        heap = self._heap
        lane = self._lane
        if lane:
            entry = lane[0]
            # heap entries are (time, priority, seq, event); seq is unique,
            # so the 4-tuple < 3-tuple comparison never reaches the event.
            if heap and heap[0] < (entry[0], 1, entry[1]):
                time, _prio, _seq, event = heappop(heap)
            else:
                del lane[0]
                time, event = entry[0], entry[2]
        elif heap:
            time, _prio, _seq, event = heappop(heap)
        else:
            raise SimulationError(
                f"step() on an empty event queue at t={self._now:.6f}"
            )
        if time < self._now:  # pragma: no cover - defensive
            raise SimulationError("event queue yielded a past event")
        self._now = time
        if self.step_hook is not None:
            self.step_hook(time, event)
        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        if callbacks is None:
            raise InvariantViolation(
                "event processed twice (callbacks already consumed)",
                event=repr(event),
                now=self._now,
            )
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            # An un-awaited event failed: surface the error instead of
            # silently swallowing it (a common source of "why did my
            # simulation hang" bugs).
            raise event.value
        if (
            event.__class__ is _Delay
            and self.step_hook is None  # hooks may retain event references
            and len(self._delay_pool) < _DELAY_POOL_MAX
        ):
            self._delay_pool.append(event)

    def _dispatch(self, target: Optional[Event]) -> bool:
        """The fused dispatch loop: pop-and-fire with everything hot in
        locals. Returns True once *target* is processed, False when the
        queue drains first (``target=None`` always drains to False)."""
        heap = self._heap
        lane = self._lane
        popleft = lane.popleft
        pool = self._delay_pool
        pop = heappop
        delay_cls = _Delay
        now = self._now
        while True:
            if target is not None and target.callbacks is None:
                return True
            if lane:
                if heap:
                    entry = lane[0]
                    if heap[0] < (entry[0], 1, entry[1]):
                        item = pop(heap)
                        time, event = item[0], item[3]
                    else:
                        popleft()
                        time, event = entry[0], entry[2]
                else:
                    entry = popleft()
                    time, event = entry[0], entry[2]
            elif heap:
                item = pop(heap)
                time, event = item[0], item[3]
            else:
                return False
            if time != now:
                self._now = now = time
            hook = self.step_hook
            if hook is not None:
                hook(time, event)
            callbacks = event.callbacks
            event.callbacks = None  # mark processed
            if callbacks is None:
                raise InvariantViolation(
                    "event processed twice (callbacks already consumed)",
                    event=repr(event),
                    now=time,
                )
            for callback in callbacks:
                callback(event)
            if not event._ok and not event.defused:
                raise event.value
            if (
                event.__class__ is delay_cls
                and hook is None  # hooks may retain event references
                and len(pool) < _DELAY_POOL_MAX
            ):
                pool.append(event)

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        * ``until=None``  — run until no events remain; raises
          :class:`Deadlock` if live processes are still blocked.
        * ``until=<float>`` — run until the clock reaches that time.
        * ``until=<Event>`` — run until that event has been processed and
          return its value (raising if it failed).
        """
        if until is None:
            self._dispatch(None)
            if self._active_processes > 0:
                raise Deadlock(self._active_processes, self._now)
            return None

        if isinstance(until, Event):
            target = until
            if not self._dispatch(target):
                raise Deadlock(self._active_processes, self._now)
            if not target.ok:
                target.defused = True
                raise target.value
            return target.value

        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"until={horizon} is in the past (now={self._now})")
        while self.peek() <= horizon:
            self.step()
        self._now = horizon
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} t={self._now:.6f} queued={self.queued} "
            f"active={self._active_processes}>"
        )
