"""GridExecutor behaviour: dedupe, cache, parallel == serial."""

import pytest

from repro.analysis import TableResult, TableView
from repro.experiments.executor import GridExecutor, run_cell
from repro.experiments.grid import (
    Cell,
    ExperimentSpec,
    SchemeSpec,
    WorkloadSpec,
    interval_times,
)

_TINY = WorkloadSpec.of(
    "sor-tiny", "sor", image_bytes=32 * 1024, n=32, iters=50,
    flops_per_cell=800.0,
)


def _tiny_spec(name="tiny", seed=0) -> ExperimentSpec:
    baseline = Cell(workload=_TINY, seed=seed)

    def plan(results):
        T = results[baseline].sim_time
        _interval, times = interval_times(T, rounds=2)
        return [
            Cell(workload=_TINY, scheme=SchemeSpec.of(s, times), seed=seed)
            for s in ("coord_nb", "coord_nbms")
        ]

    def reduce(results):
        T = results[baseline].sim_time
        rows = []
        for cell in plan(results):
            rep = results[cell]
            rows.append([cell.scheme.name, f"{rep.sim_time - T:.6f}"])
        return TableResult(
            name=name,
            views=[
                TableView(
                    name=name, title=name, headers=["scheme", "cost"],
                    rows=rows,
                )
            ],
            shapes={"all_slower": all(float(r[1]) >= 0 for r in rows)},
            data={"rows": rows},
        )

    return ExperimentSpec(
        name=name, baselines=(baseline,), plan=plan, reduce=reduce
    )


def test_dedupe_within_and_across_specs():
    ex = GridExecutor(jobs=1, use_cache=False)
    # two specs sharing the same baseline and the same derived cells
    results = ex.run_specs([_tiny_spec("a"), _tiny_spec("b")])
    assert set(results) == {"a", "b"}
    assert results["a"].data["rows"] == results["b"].data["rows"]
    # 2 baselines requested, 4 planned cells requested; 3 unique executed
    assert ex.stats.requested == 6
    assert ex.stats.executed == 3
    assert ex.stats.deduped == 3
    assert ex.stats.cache_hits == 0


def test_repeated_cells_in_one_batch_run_once():
    ex = GridExecutor(jobs=1, use_cache=False)
    cell = Cell(workload=_TINY)
    ex.run_cells([cell, cell, cell])
    assert ex.stats.requested == 3
    assert ex.stats.executed == 1
    assert ex.stats.deduped == 2


def test_cache_warm_run_executes_nothing(tmp_path):
    cold = GridExecutor(jobs=1, cache_dir=tmp_path, use_cache=True)
    first = cold.run_specs([_tiny_spec()])["tiny"]
    assert cold.stats.executed == 3
    assert cold.stats.cache_hits == 0

    warm = GridExecutor(jobs=1, cache_dir=tmp_path, use_cache=True)
    second = warm.run_specs([_tiny_spec()])["tiny"]
    assert warm.stats.executed == 0, str(warm.stats)
    assert warm.stats.cache_hits == 3
    assert second.render() == first.render()
    assert second.shape_holds() == first.shape_holds()


def test_no_cache_flag_never_touches_disk(tmp_path):
    ex = GridExecutor(jobs=1, cache_dir=tmp_path, use_cache=False)
    ex.run_specs([_tiny_spec()])
    assert list(tmp_path.iterdir()) == []


def test_corrupt_cache_entry_falls_back_to_execution(tmp_path):
    cold = GridExecutor(jobs=1, cache_dir=tmp_path, use_cache=True)
    cold.run_specs([_tiny_spec()])
    for path in tmp_path.rglob("*.json"):
        path.write_text("{not json")
    warm = GridExecutor(jobs=1, cache_dir=tmp_path, use_cache=True)
    result = warm.run_specs([_tiny_spec()])["tiny"]
    assert warm.stats.executed == 3
    assert warm.stats.cache_hits == 0
    assert result.shape_holds()["all_slower"]


def test_parallel_matches_serial_byte_for_byte():
    serial = GridExecutor(jobs=1, use_cache=False)
    parallel = GridExecutor(jobs=4, use_cache=False)
    a = serial.run_specs([_tiny_spec()])["tiny"]
    b = parallel.run_specs([_tiny_spec()])["tiny"]
    assert a.render() == b.render()
    assert a.data == b.data
    assert serial.stats.executed == parallel.stats.executed == 3


def test_parallel_cache_interoperates_with_serial(tmp_path):
    GridExecutor(jobs=4, cache_dir=tmp_path, use_cache=True).run_specs(
        [_tiny_spec()]
    )
    warm = GridExecutor(jobs=1, cache_dir=tmp_path, use_cache=True)
    warm.run_specs([_tiny_spec()])
    assert warm.stats.executed == 0


def test_worker_failure_propagates():
    bad = Cell(workload=WorkloadSpec.of("bad", "not-an-app"))
    ex = GridExecutor(jobs=2, use_cache=False)
    with pytest.raises(ValueError, match="unknown application"):
        ex.run_cells([bad, Cell(workload=_TINY)])


def test_spec_seconds_counts_only_executed_cells(tmp_path):
    spec = _tiny_spec()
    cold = GridExecutor(jobs=1, cache_dir=tmp_path, use_cache=True)
    cold.run_specs([spec])
    assert cold.spec_seconds(spec) > 0.0
    warm = GridExecutor(jobs=1, cache_dir=tmp_path, use_cache=True)
    warm.run_specs([spec])
    assert warm.spec_seconds(spec) == 0.0


def test_run_cell_is_deterministic():
    a = run_cell(Cell(workload=_TINY, seed=3))
    b = run_cell(Cell(workload=_TINY, seed=3))
    assert a.to_dict() == b.to_dict()


def test_verified_run_cell_builds_events_only_for_the_live_audit(monkeypatch):
    """Only the report leaves ``run_cell``, so a cell records nothing: an
    unaudited cell builds no trace event, and under ``verified()`` it
    builds exactly the events its live audit checks and keeps no list of
    them. The report is the same either way."""
    import repro.core.tracing as tracing
    from repro.chklib.runtime import CheckpointRuntime
    from repro.verify import trace_check

    built = []
    runtimes = []

    class CountingEvent(tracing.TraceEvent):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    real_run = CheckpointRuntime.run

    def run(self, *args, **kwargs):
        runtimes.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(tracing, "TraceEvent", CountingEvent)
    monkeypatch.setattr(CheckpointRuntime, "run", run)
    cell = Cell(workload=_TINY, scheme=SchemeSpec.of("coord_nbms", (0.002, 0.004)))

    quiet = run_cell(cell)
    assert quiet.checkpoints_committed > 0
    assert built == [] and runtimes[-1].audit_report is None

    with trace_check.verified():
        loud = run_cell(cell)
    rt = runtimes[-1]
    assert len(built) > 0 and rt.audit_report.events_checked == len(built)
    assert rt.audit_report.ok
    assert not rt.tracer.recording and rt.tracer.events == []
    assert loud.to_dict() == quiet.to_dict()
