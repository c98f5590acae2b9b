"""Tracer behaviour: one event stream, dispatched by kind to its sinks."""

import repro.core.tracing as tracing
from repro.core import Engine, Tracer
from repro.core.tracing import TraceEvent


def _seen(tracer, kinds):
    seen = []
    tracer.subscribe(kinds, lambda index, ev: seen.append((index, ev.kind)))
    return seen


def test_zero_sinks_build_no_trace_event_and_keep_counters(monkeypatch):
    built = []

    class CountingEvent(TraceEvent):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(tracing, "TraceEvent", CountingEvent)
    tr = Tracer(Engine())
    assert not tr.enabled and not tr.recording
    tr.add("chk.commits")
    tr.add("bytes", 100.0)
    tr.add("bytes", 28.0)
    tr.event("proto.commit", round=1)
    assert built == [] and tr.emitted == 0
    assert tr.events == []
    assert tr.counters == {"chk.commits": 1.0, "bytes": 128.0}
    assert tr.get("bytes") == 128.0 and tr.get("absent") == 0.0


def test_events_reach_only_the_sinks_of_their_kind_in_subscription_order():
    tr = Tracer(Engine())
    order = []
    tr.subscribe(("msg.send",), lambda i, ev: order.append(("sends", i)))
    tr.subscribe(("*",), lambda i, ev: order.append(("all", i)))
    tr.subscribe(("msg.deliver", "msg.send"), lambda i, ev: order.append(("msgs", i)))
    assert tr.enabled
    tr.event("msg.send", src=0)
    tr.event("proto.commit", round=1)
    tr.event("msg.deliver", dst=1)
    assert order == [
        ("sends", 0), ("all", 0), ("msgs", 0),
        ("all", 1),
        ("all", 2), ("msgs", 2),
    ]  # fmt: skip


def test_a_star_sink_is_folded_into_kinds_subscribed_before_and_after_it():
    tr = Tracer(Engine())
    early = _seen(tr, ("msg.send",))
    everything = _seen(tr, ("*",))
    late = _seen(tr, ("gc.run",))
    for kind in ("msg.send", "gc.run", "recover.crash"):
        tr.event(kind)
    assert early == [(0, "msg.send")] and late == [(1, "gc.run")]
    assert everything == [(0, "msg.send"), (1, "gc.run"), (2, "recover.crash")]


def test_recording_sink_keeps_events_and_filters_by_name():
    tr = Tracer(Engine()).record()
    assert tr.record() is tr and tr.recording
    tr.event("msg.send", src=0)
    tr.event("msg.deliver", dst=1)
    tr.event("msg.send", src=2)
    assert [e["src"] for e in tr.events_named("msg.send")] == [0, 2]
    assert tr.events_named("nothing") == []


def test_a_sink_subscribed_mid_stream_sees_only_what_follows():
    tr = Tracer(Engine()).record()
    tr.event("msg.send", src=0)
    tr.event("proto.commit", round=1)
    late = _seen(tr, ("*",))
    commits = _seen(tr, ("proto.commit",))
    tr.event("proto.commit", round=2)
    assert late == commits == [(2, "proto.commit")]
    assert [e.kind for e in tr.events] == ["msg.send", "proto.commit", "proto.commit"]
