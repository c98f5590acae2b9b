"""Lightweight metric and trace collection.

A :class:`Tracer` is attached to a run and accumulates:

* **counters** — monotone named totals (bytes written, protocol messages…);
* **timelines** — (time, value) samples for plotting/sweeps;
* **spans** — named intervals (checkpoint N on node R took [t0, t1]);
* **events** — structured protocol events (vote/commit/abort/token-pass,
  cuts, writes, message sends/deliveries, recoveries, GC) consumed by the
  trace invariant engine (:mod:`repro.verify.trace_check`).

Counters belong to the run's report, so they are kept whether or not
anything is recorded. Timelines, spans and events are *recordings*: they
exist for a reader (the trace audit, the timeline renderer, a test), and
:class:`NullTracer` — same interface, no-op recording bodies — drops them
when there is none, so a run nobody inspects pays only the call. Events
and spans are additionally indexed per kind/name at record time, so the
verify engine's :meth:`Tracer.events_named`/:meth:`Tracer.spans_named`
lookups are O(matches) instead of O(total recorded).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Engine

__all__ = [
    "EVENT_KINDS",
    "Tracer",
    "NullTracer",
    "make_tracer",
    "Span",
    "TraceEvent",
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
        # checkpoint-interval policies
        "policy.decide",
        "policy.adapt",
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


@dataclass
class Span:
    """A named interval of simulated time with free-form attributes."""

    name: str
    start: float
    end: Optional[float] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start


class Tracer:
    """Accumulates counters, timelines and spans for one simulation run."""

    #: does this tracer record events, spans and timelines? (Counters are
    #: kept either way.) Emission sites test it to skip building kwargs.
    enabled = True

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.counters: Dict[str, float] = {}
        self.timelines: Dict[str, List[Tuple[float, float]]] = {}
        self.spans: List[Span] = []
        self.events: List[TraceEvent] = []
        # per-kind/name indexes kept in sync by event()/open_span(), so
        # events_named()/spans_named() never scan the full record.
        self._events_by_kind: Dict[str, List[TraceEvent]] = {}
        self._spans_by_name: Dict[str, List[Span]] = {}

    # -- counters ------------------------------------------------------------

    def add(self, counter: str, amount: float = 1.0) -> None:
        """Increment a named counter."""
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def get(self, counter: str, default: float = 0.0) -> float:
        return self.counters.get(counter, default)

    # -- events ----------------------------------------------------------------

    def event(self, kind: str, **fields: object) -> None:
        """Record a structured protocol event at the current time."""
        ev = TraceEvent(self.engine.now, kind, fields)
        self.events.append(ev)
        bucket = self._events_by_kind.get(kind)
        if bucket is None:
            self._events_by_kind[kind] = [ev]
        else:
            bucket.append(ev)

    def events_named(self, kind: str) -> List[TraceEvent]:
        """All recorded events of *kind*, oldest first (a fresh list)."""
        return list(self._events_by_kind.get(kind, ()))

    # -- timelines -------------------------------------------------------------

    def sample(self, timeline: str, value: float) -> None:
        """Record ``(now, value)`` on a named timeline."""
        self.timelines.setdefault(timeline, []).append((self.engine.now, value))

    # -- spans -----------------------------------------------------------------

    def open_span(self, name: str, **attrs: object) -> Span:
        """Open an interval starting now; close with :meth:`close_span`.

        ``attrs`` is already a fresh dict owned by this call, so it is
        stored as-is — no defensive copy.
        """
        span = Span(name=name, start=self.engine.now, attrs=attrs)
        self.spans.append(span)
        bucket = self._spans_by_name.get(name)
        if bucket is None:
            self._spans_by_name[name] = [span]
        else:
            bucket.append(span)
        return span

    def close_span(self, span: Span, **attrs: object) -> Span:
        span.end = self.engine.now
        if attrs:
            span.attrs.update(attrs)
        return span

    def spans_named(self, name: str) -> List[Span]:
        """All recorded spans named *name*, oldest first (a fresh list)."""
        return list(self._spans_by_name.get(name, ()))

    # -- durable-line support --------------------------------------------------

    def export_state(self) -> dict:
        """Serialisable snapshot of counters, events and timelines.

        Spans are intentionally excluded: a halted run can hold open spans
        whose closing side lives in interrupted coroutines, so they cannot
        be resumed faithfully — and no report or invariant depends on spans
        surviving a restart. A :class:`NullTracer` exports its counters
        and no recordings.
        """
        return {
            "counters": dict(self.counters),
            "events": [(ev.time, ev.kind, dict(ev.fields)) for ev in self.events],
            "timelines": {k: list(v) for k, v in self.timelines.items()},
        }

    def restore_state(self, state: dict) -> None:
        """Load a snapshot from :meth:`export_state`: the counters always,
        the recordings only into a tracer that records."""
        self.counters = dict(state.get("counters", {}))
        if not self.enabled:
            return
        self.events = [
            TraceEvent(t, kind, dict(fields))
            for t, kind, fields in state.get("events", ())
        ]
        self._events_by_kind = {}
        for ev in self.events:
            self._events_by_kind.setdefault(ev.kind, []).append(ev)
        self.timelines = {
            k: [tuple(s) for s in v] for k, v in state.get("timelines", {}).items()
        }

    def total_span_time(self, name: str) -> float:
        """Sum of closed-span durations for *name* (open spans skipped)."""
        return sum(
            s.end - s.start
            for s in self._spans_by_name.get(name, ())
            if s.end is not None
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Tracer counters={len(self.counters)} "
            f"timelines={len(self.timelines)} spans={len(self.spans)} "
            f"events={len(self.events)}>"
        )


class NullTracer(Tracer):
    """Records nothing, counts everything.

    Selected by :func:`make_tracer` (and
    :class:`~repro.chklib.runtime.CheckpointRuntime` with ``trace=False``)
    for runs whose recordings nobody reads: every recording method body is
    a true no-op — no ``TraceEvent`` construction, no appends, no ``Span``
    allocation — while :meth:`add` is inherited, so the run's
    :class:`~repro.chklib.runtime.RunReport` is the same with or without
    recording. Read accessors answer with empties for the recordings.
    """

    enabled = False

    def event(self, kind: str, **fields: object) -> None:
        pass

    def sample(self, timeline: str, value: float) -> None:
        pass

    def open_span(self, name: str, **attrs: object) -> Span:
        return _NULL_SPAN

    def close_span(self, span: Span, **attrs: object) -> Span:
        return span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<NullTracer>"


#: the shared dummy span handed out by a :class:`NullTracer`; closed at birth
#: so accidental ``duration`` reads stay well-defined (always 0.0).
_NULL_SPAN = Span(name="<null>", start=0.0, end=0.0)


def make_tracer(engine: "Engine", enabled: bool = True) -> Tracer:
    """The run's tracer: a recording :class:`Tracer`, or the counting-only
    :class:`NullTracer` when nobody will read the recordings."""
    return Tracer(engine) if enabled else NullTracer(engine)
