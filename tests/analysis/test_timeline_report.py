"""Unit tests for the ASCII timeline."""

import importlib.util
from pathlib import Path

import pytest

from repro.analysis import render_timeline
from repro.apps import SOR
from repro.chklib import CheckpointRuntime, CoordinatedScheme
from repro.core import Engine, Tracer
from repro.machine import MachineParams


ROOT = Path(__file__).resolve().parents[2]
EXAMPLE = ROOT / "examples" / "staggered_checkpointing.py"
GOLDEN = ROOT / "tests" / "golden" / "staggered_timeline.txt"


def _at(eng, t):
    eng.timeout(t - eng.now)
    eng.run()


class TestTimeline:
    def test_paints_cuts(self):
        eng = Engine()
        tracer = Tracer(eng).record()
        tracer.event("proto.cut", rank=0, round=1)
        _at(eng, 5.0)
        tracer.event("proto.cut_end", rank=0, round=1, blocked=5.0)
        out = render_timeline(tracer, t_end=10.0, width=10)
        assert "r0" in out
        line = [l for l in out.splitlines() if l.startswith("r0")][0]
        assert line.count("#") == 6  # the cut covers [0, 5] of a 10s window
        assert "." in line

    def test_writes_rendered_separately(self):
        eng = Engine()
        tracer = Tracer(eng).record()
        tracer.event("proto.write_begin", rank=1, round=1)
        _at(eng, 2.0)
        tracer.event("proto.write_end", rank=1, round=1, ok=True)
        out = render_timeline(tracer, t_end=4.0, width=8, n_ranks=2)
        r1 = [l for l in out.splitlines() if l.startswith("r1")][0]
        assert "~" in r1

    def test_unfinished_cut_is_skipped(self):
        eng = Engine()
        tracer = Tracer(eng).record()
        tracer.event("proto.cut", rank=0, round=1)  # a crash cut it short
        _at(eng, 3.0)
        tracer.event("proto.cut", rank=0, round=1)  # the rolled-back retake
        _at(eng, 5.0)
        tracer.event("proto.cut_end", rank=0, round=1, blocked=2.0)
        tracer.event("proto.cut", rank=1, round=1)
        out = render_timeline(tracer, t_end=10.0, width=10, n_ranks=2)
        r0, r1 = out.splitlines()[1:]
        assert r0.count("#") == 3 and "#" not in r1

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

    def test_example_output_matches_golden(self, capsys):
        spec = importlib.util.spec_from_file_location("staggered_example", EXAMPLE)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        example.main()
        assert capsys.readouterr().out == GOLDEN.read_text()

