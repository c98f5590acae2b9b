"""End-to-end determinism: parallel == serial, warm cache runs nothing.

These drive the real CLI (``repro.experiments.runner``) with tiny
monkeypatched workloads and assert the two acceptance properties of the
grid core:

* stdout is byte-identical whatever ``--jobs`` says and whatever the
  cache holds;
* a second invocation against a warm cache executes **zero**
  simulations (checked via the ``--timings`` stats JSON).
"""

import json

import pytest

import repro.experiments.runner as runner_mod
import repro.experiments.table1 as table1_mod
import repro.experiments.table23 as table23_mod
from repro.experiments import WorkloadSpec


def tiny_workloads(scale=1.0):
    return [
        WorkloadSpec.of(
            "sor-tiny", "sor", image_bytes=32 * 1024, n=32, iters=50,
            flops_per_cell=800.0,
        ),
        WorkloadSpec.of(
            "nq-tiny", "nqueens", image_bytes=32 * 1024, n=8,
            flops_per_node=60000.0,
        ),
    ]


@pytest.fixture(autouse=True)
def patch_workloads(monkeypatch):
    monkeypatch.setattr(table1_mod, "table1_workloads", tiny_workloads)
    monkeypatch.setattr(table23_mod, "table23_workloads", tiny_workloads)


def _run(args, capsys) -> str:
    assert runner_mod.main(args) == 0
    return capsys.readouterr().out


def test_table1_quick_byte_identical_across_job_counts(capsys):
    base = ["table1", "--quick", "--no-cache"]
    serial = _run(base + ["--jobs", "1"], capsys)
    parallel = _run(base + ["--jobs", "4"], capsys)
    assert serial == parallel
    assert "Table 1" in serial


def test_cached_rerun_is_byte_identical_and_runs_nothing(
    tmp_path, capsys
):
    cache = str(tmp_path / "cache")
    t_cold = str(tmp_path / "cold.json")
    t_warm = str(tmp_path / "warm.json")
    base = ["table1", "--quick", "--jobs", "1", "--cache-dir", cache]

    cold_out = _run(base + ["--timings", t_cold], capsys)
    warm_out = _run(base + ["--timings", t_warm], capsys)
    assert warm_out == cold_out

    with open(t_cold) as fh:
        cold = json.load(fh)
    with open(t_warm) as fh:
        warm = json.load(fh)
    assert cold["stats"]["executed"] > 0
    assert cold["stats"]["cache_hits"] == 0
    assert warm["stats"]["executed"] == 0, warm["stats"]
    assert warm["stats"]["cache_hits"] == cold["stats"]["executed"]
    # cache hits cost no attributed execution time
    assert all(v == 0.0 for v in warm["experiments"].values())


def test_parallel_run_against_serial_cache_is_identical(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    quick = ["table3", "--quick", "--cache-dir", cache]
    serial = _run(quick + ["--jobs", "1"], capsys)
    parallel = _run(quick + ["--jobs", "4"], capsys)
    assert serial == parallel


def test_two_tier_queue_output_matches_heap_only(monkeypatch, capsys):
    """The kernel's fast lane must not change a single output byte:
    the same grid run under ``REPRO_KERNEL_BACKEND=reference`` (single
    heap, no lane) renders byte-identical tables."""
    base = ["table1", "--quick", "--no-cache", "--jobs", "1"]
    fast = _run(base, capsys)
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
    heap_only = _run(base, capsys)
    assert fast == heap_only
