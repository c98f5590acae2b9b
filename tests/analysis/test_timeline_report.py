"""Unit tests for the ASCII timeline and the markdown report builder."""

import pytest

from repro.analysis import build_report, render_timeline
from repro.apps import SOR
from repro.chklib import CheckpointRuntime, CoordinatedScheme
from repro.core import Engine, Tracer
from repro.machine import MachineParams


class TestTimeline:
    def test_paints_spans(self):
        eng = Engine()
        tracer = Tracer(eng).record()
        s1 = tracer.open_span("ckpt.cut", rank=0)
        eng.timeout(5.0)
        eng.run()
        tracer.close_span(s1)
        out = render_timeline(tracer, t_end=10.0, width=10)
        assert "r0" in out
        line = [l for l in out.splitlines() if l.startswith("r0")][0]
        assert line.count("#") == 6  # spans [0, 5] of a 10s window
        assert "." in line

    def test_write_spans_rendered_separately(self):
        eng = Engine()
        tracer = Tracer(eng).record()
        span = tracer.open_span("storage.write", node=1)
        eng.timeout(2.0)
        eng.run()
        tracer.close_span(span)
        out = render_timeline(tracer, t_end=4.0, width=8, n_ranks=2)
        r1 = [l for l in out.splitlines() if l.startswith("r1")][0]
        assert "~" in r1

    def test_empty_window_rejected(self):
        tracer = Tracer(Engine()).record()
        with pytest.raises(ValueError):
            render_timeline(tracer, t_end=0.0)

    def test_real_run_produces_visible_blocking(self):
        app = SOR(n=34, iters=12, flops_per_cell=2400.0)
        app.image_bytes = 64 * 1024
        rt0 = CheckpointRuntime(app, machine=MachineParams(n_nodes=4), seed=1)
        T = rt0.run().sim_time
        app2 = SOR(n=34, iters=12, flops_per_cell=2400.0)
        app2.image_bytes = 64 * 1024
        rt = CheckpointRuntime(
            app2,
            scheme=CoordinatedScheme.NB([T / 2]),
            machine=MachineParams(n_nodes=4),
            seed=1,
        )
        report = rt.run()
        out = render_timeline(rt.tracer, t_end=report.sim_time, n_ranks=4)
        assert out.count("#") > 4  # every rank shows a blocked window
        assert len(out.splitlines()) == 5


class _FakeResult:
    def __init__(self, ok=True):
        self._ok = ok

    def render(self):
        return "col\n---\n1"

    def shape_holds(self):
        return {"claim_a": self._ok, "claim_b": True}


class TestReport:
    def test_report_contains_sections_and_verdict(self):
        text = build_report([("Table 1", _FakeResult())], seed=7)
        assert "## Table 1" in text
        assert "seed: `7`" in text
        assert "- [x] claim_a" in text
        assert "ALL SHAPE CHECKS PASS" in text

    def test_report_flags_failures(self):
        text = build_report([("T", _FakeResult(ok=False))])
        assert "- [ ] claim_a" in text
        assert "SOME SHAPE CHECKS FAILED" in text

    def test_report_without_shapes(self):
        class Bare:
            def render(self):
                return "body"

        text = build_report([("B", Bare())], preamble="intro text")
        assert "intro text" in text
        assert "body" in text
