"""Counters and the event stream of one simulation run.

A :class:`Tracer` keeps the run's **counters** (named totals the report
reads, kept on every run) and is the one dispatch point of its **event
stream**: :meth:`Tracer.event` hands each structured protocol event (cuts,
votes, commits, writes, message sends/deliveries, recoveries, GC…) to the
*sinks* subscribed to its kind, in subscription order, and keeps nothing
itself. With no sink, ``enabled`` is False and an event builds no
:class:`TraceEvent` at all. A run's sinks are the checker battery of the
live trace audit (:class:`repro.verify.trace_check.Audit`) and the
recording sink (:meth:`Tracer.record`), which keeps ``events`` for tests,
the explorer, the timeline renderer and a halt's durable line. An
interval (a cut's blocked window, an image's stable write) is the pair of
events that opens and closes it, so every sink sees it.

The invariant-checker base (:class:`Checker`, with :class:`RunMeta` and
:class:`TraceViolation`) sits here beside the stream it reads, so a
protocol family defines its checkers in its own module: the
family-independent ones are in :mod:`repro.verify.invariants`, each
family's in its scheme module (``Scheme.CHECKERS``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Engine

__all__ = [
    "EVENT_KINDS",
    "Tracer",
    "TraceEvent",
    "RunMeta",
    "TraceViolation",
    "Checker",
]

#: The closed vocabulary of trace-event kinds. Every ``tracer.event(...)``
#: emission site must use a name from this set, and every invariant
#: checker's subscription must resolve against it — the static analyzer's
#: trace-conformance pass enforces both directions, so a typo'd name can
#: no longer make an invariant pass vacuously.
EVENT_KINDS = frozenset(
    {
        # protocol rounds (coordinated 2PC + markers, independent cuts)
        "proto.request",
        "proto.cut",
        "proto.cut_end",
        "proto.ack",
        "proto.commit",
        "proto.commit_apply",
        "proto.commit_on_recovery",
        "proto.abort_report",
        "proto.abort",
        "proto.abort_apply",
        "proto.token_pass",
        "proto.write_begin",
        "proto.write_end",
        "proto.local_commit",
        # communication-induced checkpointing (index rule)
        "proto.cic.forced",
        "proto.cic.promote",
        # sender-based pessimistic message logging
        "proto.mlog.logged",
        "proto.mlog.degraded",
        # channel traffic
        "msg.send",
        "msg.deliver",
        # failure / recovery machinery
        "recover.crash",
        "recover.quarantine",
        "recover.line",
        "recover.replay",
        # checkpoint garbage collection
        "gc.run",
        "gc.discard",
        # durable halt/resume
        "resume.halt",
    }
)


@dataclass(frozen=True)
class TraceEvent:
    """One structured protocol event at a point in simulated time.

    ``kind`` is a dotted name (``proto.commit``, ``msg.deliver``,
    ``recover.line``, ``gc.discard``…); ``fields`` hold the event's
    payload (round number, rank, channel, sequence number, …). The full
    vocabulary is documented in :mod:`repro.verify.invariants`.
    """

    time: float
    kind: str
    fields: Dict[str, object]

    def __getitem__(self, key: str) -> object:
        return self.fields[key]

    def get(self, key: str, default: object = None) -> object:
        return self.fields.get(key, default)


#: a stream subscriber: called with each event's index in the run's stream
#: (0 = the run's first event, across restarts) and the event.
Sink = Callable[[int, TraceEvent], None]

@dataclass(frozen=True)
class RunMeta:
    """What the checkers need to know about the run they are auditing."""

    n_ranks: int
    scheme: str = "none"  #: scheme name (coord_nbms, indep_m, …)
    klass: str = "none"  #: "coordinated" | "independent" | "cic" | "msglog" | "none"
    staggered: bool = False
    logging: bool = False
    #: stable-storage shard count: staggering holds mutual exclusion *per
    #: server* (S independent rings), so the write-mutex checker groups
    #: writers by their shard (block sharding, ``rank * S // n_ranks``).
    storage_servers: int = 1


@dataclass
class TraceViolation:
    """One violated trace invariant."""

    invariant: str
    message: str
    time: float
    event_index: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TraceViolation {self.invariant} t={self.time:.6f}: {self.message}>"


class Checker:
    """Base class of a trace invariant: accumulate violations while fed
    the stream.

    Checkers are fed events in stream order via :meth:`on_event` and
    report the accumulated violations from :meth:`finish`.
    They are deliberately *independent re-implementations* of the
    conditions the runtime already enforces inline — the point is
    cross-checking the implementation, not reusing it.
    """

    name = "checker"

    #: the only trace-event kinds the audit subscribes this checker to
    #: (``("*",)``: every event), so it must name every kind ``on_event``
    #: reads. Cross-checked against the emission sites by the analyzer's
    #: trace-conformance pass: a subscription nothing emits fails analysis.
    consumes: Tuple[str, ...] = ()

    def __init__(self, meta: RunMeta) -> None:
        self.meta = meta
        self.violations: List[TraceViolation] = []
        self._index = -1
        #: time of the stream's latest event of any kind, consumed or not
        #: — what :meth:`finish` stamps end-of-stream violations with.
        self._now = 0.0

    def feed(self, index: int, ev: TraceEvent) -> None:
        """Show this checker the stream's event number *index* — its sink."""
        self._index = index
        self._now = ev.time
        self.on_event(ev)

    def flag(self, message: str, time: float) -> None:
        self.violations.append(
            TraceViolation(
                invariant=self.name,
                message=message,
                time=time,
                event_index=self._index,
            )
        )

    # -- overridables --------------------------------------------------------

    def on_event(self, ev: TraceEvent) -> None:
        raise NotImplementedError

    def finish(self) -> List[TraceViolation]:
        return self.violations


class Tracer:
    """Counters and the event stream of one simulation run."""

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.counters: Dict[str, float] = {}
        #: does any sink listen? Emission sites test it to skip building kwargs.
        self.enabled = False
        #: is the recording sink subscribed (:meth:`record`)?
        self.recording = False
        self.events: List[TraceEvent] = []
        #: the stream before this run: events restored from a durable line,
        #: shown to every sink when it subscribes.
        self.history: List[TraceEvent] = []
        #: the index the next event gets in the run's stream.
        self.emitted = 0
        self._sinks: Dict[str, List[Sink]] = {}
        self._everyone: List[Sink] = []

    # -- counters ------------------------------------------------------------

    def add(self, counter: str, amount: float = 1.0) -> None:
        """Increment a named counter."""
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def get(self, counter: str, default: float = 0.0) -> float:
        return self.counters.get(counter, default)

    # -- the event stream ------------------------------------------------------

    def subscribe(self, kinds: Tuple[str, ...], sink: Sink) -> None:
        """Show *sink* every event whose kind is in *kinds* (``"*"``: every
        event) — first the restored :attr:`history`, then each new one.
        A ``"*"`` sink is folded into every kind's entry, present and
        future, so dispatch is one table lookup per event."""
        if "*" in kinds:
            self._everyone.append(sink)
            for sinks in self._sinks.values():
                sinks.append(sink)
        else:
            for kind in kinds:
                self._sinks.setdefault(kind, list(self._everyone)).append(sink)
        self.enabled = True
        for index, ev in enumerate(self.history):
            if "*" in kinds or ev.kind in kinds:
                sink(index, ev)

    def event(self, kind: str, **fields: object) -> None:
        """Emit a structured protocol event at the current time."""
        if self.enabled:
            self.publish(TraceEvent(self.engine.now, kind, fields))

    def publish(self, ev: TraceEvent) -> None:
        """Hand *ev*, the stream's next event, to the sinks of its kind."""
        index = self.emitted
        self.emitted = index + 1
        for sink in self._sinks.get(ev.kind, self._everyone):
            sink(index, ev)

    def record(self) -> "Tracer":
        """Subscribe the recording sink: from now on :attr:`events` holds
        the whole stream (history included)."""
        if not self.recording:
            self.recording = True
            self.subscribe(("*",), lambda _index, ev: self.events.append(ev))
        return self

    def events_named(self, kind: str) -> List[TraceEvent]:
        """The recorded events of *kind*, oldest first."""
        return [ev for ev in self.events if ev.kind == kind]

    # -- durable-line support --------------------------------------------------

    def export_state(self) -> dict:
        """Serialisable snapshot: the counters and the recorded events."""
        return {
            "counters": dict(self.counters),
            "events": [(ev.time, ev.kind, dict(ev.fields)) for ev in self.events],
        }

    def restore_state(self, state: dict) -> None:
        """Load a snapshot from :meth:`export_state` into a tracer nothing
        has subscribed to yet: the events become the :attr:`history` each
        sink is shown first, and the next event continues their indices."""
        self.counters = dict(state.get("counters", {}))
        self.history = [
            TraceEvent(t, kind, dict(fields))
            for t, kind, fields in state.get("events", ())
        ]
        self.emitted = len(self.history)
