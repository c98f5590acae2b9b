"""Unit tests of the end-to-end benchmark's own arithmetic (seconds to run;
outside the tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -q
"""

import hashlib
import json
import time

import pytest

import bench_e2e
from layers import Sampler, Spans, hi_percentile, owner_of


ENGINE = "/x/src/repro/core/engine.py"
SOR = "/x/src/repro/apps/sor.py"
GRID = "/x/src/repro/experiments/grid.py"
NUMPY = "/usr/lib/python3/site-packages/numpy/core/fromnumeric.py"
JSON = "/usr/lib/python3.11/json/encoder.py"
BENCH = "/x/benchmarks/e2e/bench_e2e.py"
OBSERVER = "/x/benchmarks/e2e"


class TestStackOwner:
    """Stacks are file names, innermost frame first."""

    def test_a_builtin_has_no_frame_so_its_caller_owns_the_sample(self):
        # heappop running inside the dispatch loop: the loop is the leaf frame
        assert owner_of([ENGINE, BENCH], OBSERVER) == "core"

    def test_callees_outside_repro_are_charged_to_the_calling_package(self):
        assert owner_of([NUMPY, NUMPY, SOR, ENGINE, BENCH], OBSERVER) == "apps"
        assert owner_of([JSON, JSON, GRID, BENCH], OBSERVER) == "experiments"

    def test_the_innermost_package_wins_over_its_callers(self):
        assert owner_of([SOR, ENGINE, "/x/src/repro/chklib/runtime.py"]) == "apps"

    def test_the_benchmarks_own_frames_are_charged_to_nobody(self):
        # the step hook, called back by core; the driver loop itself
        assert owner_of([BENCH, ENGINE, BENCH], OBSERVER) is None
        assert owner_of([BENCH], OBSERVER) is None
        # without an observer the hook is core's callee like any other
        assert owner_of([BENCH, ENGINE, BENCH]) == "core"

    def test_a_stack_without_a_package_frame_has_no_owner(self):
        assert owner_of([JSON, "/usr/lib/python3.11/runpy.py"]) is None
        assert owner_of(["/x/src/repro/__init__.py"]) is None
        assert owner_of([]) is None


class TestSampler:
    def test_every_second_lands_in_a_package_or_with_nobody(self):
        sampler = Sampler(interval=0.001, observer=OBSERVER)
        t0 = time.perf_counter()
        with sampler.running():
            acc = 0
            while time.perf_counter() - t0 < 0.05:
                acc += 1
        wall = time.perf_counter() - t0
        # this test file is in no package: every tick and the tail go to None
        assert set(sampler.seconds) == {None}
        assert sampler.seconds[None] == pytest.approx(wall, rel=0.05)

    def test_ticks_are_charged_by_the_frames_file_names(self):
        class Frame:
            def __init__(self, filename, back=None):
                self.f_code = type("Code", (), {"co_filename": filename})
                self.f_back = back

        sampler = Sampler(observer=OBSERVER)
        sampler._last = time.perf_counter() - 1.0
        sampler._tick(None, Frame(NUMPY, Frame(SOR, Frame(ENGINE))))
        sampler._tick(None, Frame(BENCH, Frame(ENGINE)))
        assert sampler.seconds["apps"] == pytest.approx(1.0, abs=0.01)
        assert sampler.numpy_seconds["apps"] == sampler.seconds["apps"]
        assert sampler.seconds[None] < 0.01 and "core" not in sampler.seconds

    def test_the_previous_handler_is_restored(self):
        import signal

        before = signal.getsignal(signal.SIGPROF)
        with Sampler().running():
            assert signal.getsignal(signal.SIGPROF) != before
        assert signal.getsignal(signal.SIGPROF) == before


class TestHiPercentile:
    def test_ten_samples_lie_beyond_the_reported_value(self):
        value, percentile, n = hi_percentile(range(100))
        assert (value, percentile, n) == (89, 90.0, 100)
        assert sum(1 for s in range(100) if s > value) == 10

    def test_sixty_three_cells_give_p84(self):
        value, percentile, n = hi_percentile([float(i) for i in range(63)])
        assert value == 52.0 and n == 63
        assert percentile == pytest.approx(100 * 53 / 63)

    def test_too_few_samples_fall_back_to_the_maximum(self):
        assert hi_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
        assert hi_percentile(list(range(10))) == (9, 100.0, 10)
        assert hi_percentile(list(range(11))) == (0, pytest.approx(100 / 11), 11)

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            hi_percentile([])


class TestFailedShare:
    def test_each_failure_counts_once_against_everything_attempted(self):
        tally = bench_e2e.Tally()
        tally.command(bench_e2e.Child(0, 1.0, 50.0, b"", b""), "cold")
        tally.command(bench_e2e.Child(1, 1.0, 50.0, b"", b"Traceback\nboom"), "warm")
        tally.cell_stats({"requested": 8, "failed": 1, "timeouts": 1})
        tally.check(True, "fine")
        tally.check(False, "stdout differs")
        # 1 bad exit + 2 failed cells + 1 failed check over 2 commands + 8 cells
        assert tally.as_dict()["attempted"] == 10
        assert tally.as_dict()["failed"] == 4
        assert tally.failed / tally.attempted == pytest.approx(0.4)
        assert any("boom" in note for note in tally.notes)

    def test_a_clean_run_fails_nothing(self):
        tally = bench_e2e.Tally()
        tally.command(bench_e2e.Child(0, 1.0, 50.0, b"", b""), "cold")
        tally.cell_stats({"requested": 63, "failed": 0, "timeouts": 0})
        assert (tally.attempted, tally.failed, tally.notes) == (64, 0, ())


class TestStdoutPins:
    def test_a_doctored_stdout_trips_the_digest_check(self, tmp_path):
        stdout = b"\nScale\n  [ok] nbms_beats_nb_everywhere\n\n"
        pins = {"scale512": hashlib.sha256(stdout).hexdigest()}
        golden = tmp_path / "missing.txt"
        assert bench_e2e.check_stdout("scale512", 0, stdout, pins, golden) == []
        doctored = stdout.replace(b"[ok]", b"[MISS]")
        assert bench_e2e.check_stdout("scale512", 0, doctored, pins, golden)
        # only seed 0 is pinned; other seeds are checked cold == warm == traced
        assert bench_e2e.check_stdout("scale512", 7, doctored, pins, golden) == []

    def test_tables8_is_pinned_to_the_golden_fixture(self, tmp_path):
        golden = tmp_path / "table3_quick.txt"
        golden.write_bytes(b"Table 3\n")
        assert bench_e2e.check_stdout("tables8", 0, b"Table 3\n", {}, golden) == []
        assert bench_e2e.check_stdout("tables8", 0, b"Table 3 \n", {}, golden)
        assert bench_e2e.check_stdout("tables8", 0, b"Table 3\n", {}, tmp_path / "gone")

    def test_the_committed_golden_is_where_the_benchmark_looks(self):
        assert bench_e2e.GOLDEN_TABLES8.is_file()


class TestSpans:
    def test_self_time_excludes_child_spans(self):
        spans = Spans()
        spans.records = [
            ["run_cell", 0.0, 10.0, None],
            ["inner", 2.0, 5.0, 0],
            ["inner", 6.0, 7.0, 0],
            ["leaf", 2.5, 3.0, 1],
        ]
        assert spans.total("run_cell") == 10.0
        assert spans.self_time("run_cell") == pytest.approx(6.0)
        assert spans.self_time("inner") == pytest.approx(3.5)
        assert spans.durations("inner") == [3.0, 1.0]

    def test_nesting_records_the_parent(self):
        spans = Spans()
        with spans.span("outer"):
            with spans.span("inner"):
                pass
        assert [r[3] for r in spans.records] == [None, 0]
        assert spans.total("outer") >= spans.total("inner") >= 0.0


class TestContractFiles:
    """BENCHMARK.json, baseline.json and the code name the same things."""

    def test_workloads_match(self):
        spec = json.loads((bench_e2e.ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(bench_e2e.WORKLOADS)
        assert spec["paths"] == ["benchmarks/e2e"]

    def test_baseline_holds_every_metric_and_pin(self):
        bounds = bench_e2e.metric_table()
        baseline = bench_e2e.load_baseline()
        assert set(baseline["pins"]) == set(bench_e2e.WORKLOADS) - {"tables8"}
        for name, recorded in baseline["workloads"].items():
            for metric, meta in bounds.items():
                section = "end_to_end" if "bound" in meta else "per_layer"
                assert metric in recorded[section], (name, metric)

    def test_every_layer_metric_has_a_stated_effect(self):
        for metric, meta in bench_e2e.metric_table().items():
            if "." in metric:
                assert metric.split(".")[0] in bench_e2e.LAYER_MOVES, metric
