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


def test_restored_history_is_shown_to_each_sink_first_and_indices_continue():
    eng = Engine()
    halted = Tracer(eng).record()
    halted.add("chk.commits")
    halted.event("msg.send", src=0)
    halted.event("proto.commit", round=1)
    state = halted.export_state()
    assert state == {
        "counters": {"chk.commits": 1.0},
        "events": [(0.0, "msg.send", {"src": 0}), (0.0, "proto.commit", {"round": 1})],
    }

    resumed = Tracer(eng)
    resumed.restore_state(state)
    assert resumed.counters == halted.counters and not resumed.enabled
    commits = _seen(resumed, ("proto.commit",))
    resumed.record()
    resumed.event("proto.commit", round=2)
    assert commits == [(1, "proto.commit"), (2, "proto.commit")]
    kinds = [e.kind for e in resumed.events]
    assert kinds == ["msg.send", "proto.commit", "proto.commit"]
    # a resumed tracer nothing subscribes to keeps the counters only
    quiet = Tracer(eng)
    quiet.restore_state(state)
    quiet.event("proto.commit", round=2)
    assert quiet.export_state() == {"counters": {"chk.commits": 1.0}, "events": []}
