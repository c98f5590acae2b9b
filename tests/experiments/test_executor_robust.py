"""Executor robustness: resume from the cache, cell timeouts, crash survival.

The crash-survivable experiment plane (DESIGN.md §9): a sweep killed at
any instant resumes byte-identically from its result cache, whose every
entry is fsynced before it is renamed into place; a cell
that hangs is cut off by the wall-clock budget, retried once, and then
recorded as failed; a worker crash (``BrokenProcessPool``) restarts the
pool without losing completed work; and the runner reports failures on
stderr and exits non-zero instead of pretending everything rendered.
"""

import json
import os
import time

import pytest

import repro.experiments.executor as executor_mod
import repro.experiments.runner as runner_mod
from repro.analysis import TableResult, TableView
from repro.experiments.executor import (
    CellTimeout,
    GridExecutor,
    code_fingerprint,
    write_json_atomic,
)
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


# -- satellite: torn cache writes ---------------------------------------------


def test_cache_writes_leave_no_temp_files(tmp_path):
    ex = GridExecutor(jobs=1, cache_dir=tmp_path, use_cache=True)
    ex.run_specs([_tiny_spec()])
    # atomic write protocol: mkstemp + replace — nothing half-written stays
    assert list(tmp_path.rglob(".tmp-*")) == []
    assert len(list(tmp_path.rglob("*.json"))) == 3


def test_torn_cache_entry_is_a_miss_not_a_crash(tmp_path):
    cold = GridExecutor(jobs=1, cache_dir=tmp_path, use_cache=True)
    first = cold.run_specs([_tiny_spec()])["tiny"]
    for path in tmp_path.rglob("*.json"):
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])  # torn mid-write
    warm = GridExecutor(jobs=1, cache_dir=tmp_path, use_cache=True)
    second = warm.run_specs([_tiny_spec()])["tiny"]
    assert warm.stats.cache_hits == 0
    assert warm.stats.executed == 3
    assert second.render() == first.render()


def test_cache_entry_is_fsynced_before_it_is_renamed(tmp_path, monkeypatch):
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    target = tmp_path / "entry.json"
    write_json_atomic(target, {"ok": True})
    assert [kind for kind, _ in calls] == ["fsync", "replace"]
    # the file fsynced is the temp file that is then renamed into place
    assert calls[0][1] == calls[1][1]
    assert json.loads(target.read_text()) == {"ok": True}


# -- resume: the cache is the record of finished cells -------------------------


def test_cache_partial_resume_runs_only_the_missing_cells(tmp_path):
    first = GridExecutor(jobs=1, cache_dir=tmp_path).run_specs(
        [_tiny_spec()]
    )["tiny"]
    # keep one finished cell: a sweep killed after its first cell
    for path in sorted(tmp_path.rglob("*.json"))[1:]:
        path.unlink()
    ex = GridExecutor(jobs=1, cache_dir=tmp_path)
    second = ex.run_specs([_tiny_spec()])["tiny"]
    assert ex.stats.cache_hits == 1
    assert ex.stats.executed == 2
    assert second.render() == first.render()
    assert len(list(tmp_path.rglob("*.json"))) == 3  # the re-run cells cached


def test_cache_entry_of_another_code_fingerprint_is_a_miss(
    tmp_path, monkeypatch
):
    GridExecutor(jobs=1, cache_dir=tmp_path).run_specs([_tiny_spec()])
    monkeypatch.setattr(executor_mod, "_FINGERPRINT", "0" * 24)
    ex = GridExecutor(jobs=1, cache_dir=tmp_path)
    ex.run_specs([_tiny_spec()])
    assert ex.stats.cache_hits == 0
    assert ex.stats.executed == 3


def test_cache_entries_carry_the_cell_for_tooling(tmp_path):
    GridExecutor(jobs=1, cache_dir=tmp_path).run_cells(
        [Cell(workload=_TINY, seed=5)]
    )
    (path,) = tmp_path.rglob("*.json")
    entry = json.loads(path.read_text())
    assert entry["version"] == 1
    assert entry["fingerprint"] == code_fingerprint()
    assert entry["cell"]["workload"]["label"] == "sor-tiny"
    assert entry["cell"]["seed"] == 5


# -- per-cell wall-clock timeout ----------------------------------------------


def _sleepy_task(cell):
    time.sleep(30.0)  # interrupted by SIGALRM long before it finishes
    raise AssertionError("unreachable: the timeout must fire")


@pytest.fixture
def sleepy_cells(monkeypatch):
    """Make every cell execution hang (fork workers inherit the patch)."""
    monkeypatch.setattr(executor_mod, "_run_cell_task", _sleepy_task)
    return [Cell(workload=_TINY)]


def test_serial_timeout_retries_once_then_records_failure(sleepy_cells):
    ex = GridExecutor(
        jobs=1, use_cache=False, cell_timeout=0.2, raise_on_failure=False
    )
    ex.run_cells(sleepy_cells)
    assert ex.stats.timeouts == 2  # initial attempt + its one retry
    assert ex.stats.retries == 1
    assert ex.stats.failed == 1
    (record,) = ex.failures.values()
    assert record["kind"] == "timeout"
    assert record["attempts"] == 2
    assert ex.stats.executed == 0


def test_serial_timeout_raises_after_retry_when_asked(sleepy_cells):
    ex = GridExecutor(jobs=1, use_cache=False, cell_timeout=0.2)
    with pytest.raises(CellTimeout, match="wall-clock budget"):
        ex.run_cells(sleepy_cells)
    assert ex.stats.timeouts == 2  # still never hangs, still retried once


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs fork workers to inherit the patch"
)
def test_parallel_timeout_is_survivable(sleepy_cells):
    ex = GridExecutor(
        jobs=2, use_cache=False, cell_timeout=0.2, raise_on_failure=False
    )
    ex.run_cells(sleepy_cells)
    assert ex.stats.timeouts == 2
    assert ex.stats.failed == 1
    (record,) = ex.failures.values()
    assert record["kind"] == "timeout"


# -- worker-crash survival -----------------------------------------------------


def _crashy_task(cell):
    if cell.seed == 99:
        # let the innocent cell on the other worker finish first, then die
        time.sleep(1.0)
        os._exit(3)  # hard worker death, not an exception
    return executor_mod.__dict__["_original_run_cell_task"](cell)


@pytest.fixture
def crashy_cells(monkeypatch):
    """A cell whose worker dies on every attempt, and an innocent one."""
    monkeypatch.setitem(
        executor_mod.__dict__,
        "_original_run_cell_task",
        executor_mod._run_cell_task,
    )
    monkeypatch.setattr(executor_mod, "_run_cell_task", _crashy_task)
    return [Cell(workload=_TINY, seed=99), Cell(workload=_TINY, seed=1)]


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs fork workers to inherit the patch"
)
def test_broken_pool_restarts_and_records_the_culprit(crashy_cells):
    crash, ok = crashy_cells
    ex = GridExecutor(jobs=2, use_cache=False, raise_on_failure=False)
    ex.run_cells([crash, ok])
    assert ex.stats.pool_restarts >= 1
    assert ex.stats.failed == 1
    (record,) = ex.failures.values()
    assert record["kind"] == "crash"
    assert record["cell"]["seed"] == 99
    # the innocent cell still completed
    assert ex.results.get(ok) is not None


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs fork workers to inherit the patch"
)
def test_broken_pool_raises_when_asked(crashy_cells):
    from concurrent.futures.process import BrokenProcessPool

    ex = GridExecutor(jobs=2, use_cache=False)
    with pytest.raises(BrokenProcessPool):
        ex.run_cells(crashy_cells)
    assert ex.stats.failed == 1
    (record,) = ex.failures.values()
    assert record["kind"] == "crash"
    assert record["attempts"] == 2


# -- runner: failure summary + exit status ------------------------------------


def _broken_spec(name="tiny"):
    """A spec whose baseline cell cannot even build its application."""
    baseline = Cell(workload=WorkloadSpec.of("bad", "not-an-app"))
    return ExperimentSpec(
        name=name,
        baselines=(baseline,),
        # results[baseline] raises: the failed baseline never produced one
        plan=lambda results: [results[baseline]] and [],
        reduce=lambda results: results[baseline],
    )


def test_runner_exits_nonzero_and_summarises_failures(
    monkeypatch, capsys, tmp_path
):
    monkeypatch.setattr(
        runner_mod, "_build_spec", lambda spec_name, seed, scale, **kw: _broken_spec("table1")
    )
    timings = tmp_path / "timings.json"
    # with and without --timings (a loop, not parametrize: the test id
    # is pinned); a failed baseline must not take the timings file down
    for extra in ([], ["--timings", str(timings)]):
        rc = runner_mod.main(["table1", "--no-cache", "--jobs", "1"] + extra)
        captured = capsys.readouterr()
        assert rc == 1
        assert "cell(s) FAILED" in captured.err
        assert "bad/baseline" in captured.err
        assert "[runner] table1: no result" in captured.err
    written = json.loads(timings.read_text())
    assert written["stats"]["failed"] >= 1
    assert written["experiments"] == {"table1": 0.0}


def test_runner_reports_spec_level_errors(monkeypatch, capsys):
    spec = _tiny_spec("table1")

    def bad_reduce(results):
        raise RuntimeError("reduce exploded")

    monkeypatch.setattr(spec, "reduce", bad_reduce)
    monkeypatch.setattr(
        runner_mod, "_build_spec", lambda spec_name, seed, scale, **kw: spec
    )
    rc = runner_mod.main(["table1", "--no-cache", "--jobs", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "spec table1" in captured.err
    assert "reduce exploded" in captured.err
