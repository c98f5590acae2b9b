"""Tracer behaviour: per-kind indexes, span accounting, the NullTracer."""

from repro.core import Engine, NullTracer, Tracer, make_tracer


def test_make_tracer_selects_implementation():
    eng = Engine()
    assert type(make_tracer(eng, enabled=True)) is Tracer
    assert type(make_tracer(eng, enabled=False)) is NullTracer


def test_events_named_uses_per_kind_index():
    eng = Engine()
    tr = Tracer(eng)
    tr.event("msg.send", src=0)
    tr.event("msg.deliver", dst=1)
    tr.event("msg.send", src=2)
    sends = tr.events_named("msg.send")
    assert [e["src"] for e in sends] == [0, 2]
    assert tr.events_named("msg.deliver")[0]["dst"] == 1
    assert tr.events_named("nothing") == []
    # the returned list is a fresh copy: mutating it must not corrupt
    # the index
    sends.clear()
    assert len(tr.events_named("msg.send")) == 2


def test_spans_named_and_total_span_time_skip_open_spans():
    eng = Engine()
    tr = Tracer(eng)
    s1 = tr.open_span("ckpt", node=0)
    eng._now = 2.0
    tr.close_span(s1, bytes=10)
    tr.open_span("ckpt", node=1)  # stays open
    s3 = tr.open_span("other")
    eng._now = 5.0
    tr.close_span(s3)
    assert len(tr.spans_named("ckpt")) == 2
    # only the *closed* ckpt span counts; the open one and the
    # differently-named one do not
    assert tr.total_span_time("ckpt") == 2.0
    assert tr.total_span_time("other") == 3.0
    assert tr.total_span_time("absent") == 0.0
    assert s1.attrs == {"node": 0, "bytes": 10}


def test_disabled_tracer_records_nothing():
    eng = Engine()
    tr = make_tracer(eng, enabled=False)
    assert not tr.enabled
    tr.event("proto.commit", round=1)
    tr.sample("load", 1.0)
    span = tr.open_span("ckpt", node=3)
    assert tr.close_span(span, ok=True) is span
    # nothing was recorded, all read accessors answer with empties
    assert tr.events == [] and tr.spans == [] and tr.timelines == {}
    assert tr.events_named("proto.commit") == []
    assert tr.spans_named("ckpt") == []
    assert tr.total_span_time("ckpt") == 0.0
    # the shared null span is closed at birth: duration is well-defined
    assert span.duration == 0.0


def test_null_tracer_counts_everything():
    """Counters feed the RunReport, so they do not depend on recording."""
    eng = Engine()
    null, full = NullTracer(eng), Tracer(eng)
    for tr in (null, full):
        tr.add("chk.commits")
        tr.add("bytes", 100.0)
        tr.add("bytes", 28.0)
        tr.event("proto.commit", round=1)
    assert null.counters == full.counters == {"chk.commits": 1.0, "bytes": 128.0}
    assert null.get("bytes") == 128.0 and null.get("absent") == 0.0
    # a durable line carries the counters of an unrecorded run ...
    state = null.export_state()
    assert state == {"counters": null.counters, "events": [], "timelines": {}}
    # ... and a resumed unrecorded run takes the counters and nothing else
    resumed = NullTracer(eng)
    resumed.restore_state(full.export_state())
    assert resumed.counters == full.counters
    assert resumed.events == [] and resumed.events_named("proto.commit") == []
    recording = Tracer(eng)
    recording.restore_state(full.export_state())
    assert [e.kind for e in recording.events] == ["proto.commit"]


def test_null_tracer_span_is_shared_singleton():
    eng = Engine()
    tr = NullTracer(eng)
    assert tr.open_span("a") is tr.open_span("b")
