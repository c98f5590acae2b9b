"""What ``repro.apps`` computes once per process — and what that must not touch.

Counted guards (no timing): a table row's scheme cells look their search
tasks up instead of re-searching; a hit and a miss produce the same report;
cached problem instances are read-only and never enter a state dict, whose
pickle *is* the checkpoint image.
"""

import numpy as np
import pytest

from repro.apps import ASP, Gauss, Ising, NQueens, TSP
from repro.apps.asp import _make_graph
from repro.apps.gauss import _make_system
from repro.apps.ising import _couplings
from repro.apps.nqueens import _count_from
from repro.apps.tsp import _make_map, _search
from repro.chklib import CheckpointRuntime, CoordinatedScheme
from repro.experiments.executor import GridExecutor
from repro.experiments.table23 import table23_spec
from repro.experiments.workloads import table23_workloads
from repro.fault import FaultModel
from repro.machine import MachineParams

# -- one search per task per process ------------------------------------------


@pytest.mark.parametrize(
    "label,task_cache", [("nqueens-12", _count_from), ("tsp-12", _search)]
)
def test_scheme_cells_look_their_tasks_up(label, task_cache):
    """The row's baseline searches its 110 tasks; the six scheme cells
    after it (same app, same seed, same per-rank incumbents) only hit."""
    row = [w for w in table23_workloads(0.2) if w.label == label]
    spec = table23_spec(workloads=row, scale=0.2)
    executor = GridExecutor(jobs=1, use_cache=False)
    task_cache.cache_clear()
    executor.run_cells(spec.plan(executor.run_cells(spec.baselines)))
    assert executor.stats.executed == 7
    info = task_cache.cache_info()
    assert info.misses == 110
    assert info.hits >= 6 * 110


@pytest.mark.parametrize(
    "app_factory,task_cache",
    [
        (lambda: NQueens(n=8, flops_per_node=2000.0), _count_from),
        (lambda: TSP(n_cities=9, flops_per_node=3000.0), _search),
    ],
    ids=["nqueens", "tsp"],
)
def test_crash_recovery_report_same_warm_and_cold(app_factory, task_cache):
    machine = MachineParams(n_nodes=4)

    def run(**kw):
        app = app_factory()
        app.image_bytes = 32 * 1024
        return CheckpointRuntime(app, machine=machine, seed=5, **kw).run()

    t = run().sim_time

    def run_crashed():
        return run(
            scheme=CoordinatedScheme.NBM([t / 4, t / 2]),
            fault_model=FaultModel.machine_crash(0.8 * t),
        )

    task_cache.cache_clear()
    cold = run_crashed()
    searched = task_cache.cache_info().misses
    warm = run_crashed()
    assert len(cold.recoveries) == 1
    # the post-crash replay and the whole second run were lookups
    assert task_cache.cache_info().misses == searched
    assert warm.to_dict() == cold.to_dict()


# -- cached instances: read-only, copied before mutation, never in a state ------


@pytest.mark.parametrize(
    "instance",
    [
        lambda: _couplings(16, 3)[0],
        lambda: _couplings(16, 3)[1],
        lambda: _make_system(12, 3),
        lambda: _make_graph(12, 3, 0.3),
        lambda: _make_map(8, 3),
    ],
    ids=["ising-jh", "ising-jv", "gauss", "asp", "tsp"],
)
def test_cached_instance_is_read_only(instance):
    arr = instance()
    assert arr is instance()  # one object per (params, seed)
    with pytest.raises(ValueError, match="read-only"):
        arr[0, 0] = 1


@pytest.mark.parametrize(
    "app", [Gauss(n=24), ASP(n=24)], ids=["gauss", "asp"]
)
def test_serial_result_does_not_consume_the_cached_instance(app):
    first = app.serial_result(4, 7)
    second = app.serial_result(4, 7)
    assert str(first) == str(second)


@pytest.mark.parametrize(
    "app,cached",
    [
        (Ising(n=16, iters=1), lambda: _couplings(16, 3)),
        (Gauss(n=12), lambda: (_make_system(12, 3),)),
        (ASP(n=12), lambda: (_make_graph(12, 3, 0.2),)),
        (TSP(n_cities=8), lambda: (_make_map(8, 3),)),
    ],
    ids=["ising", "gauss", "asp", "tsp"],
)
def test_state_arrays_are_private_writable_copies(app, cached):
    """A read-only array pickles to different bytes than a writable one, and
    a shared one would be mutated by every rank: either moves a table."""
    for rank in range(2):
        state = app.make_state(rank, 2, 3)
        arrays = [v for v in state.values() if isinstance(v, np.ndarray)]
        assert arrays
        for arr in arrays:
            assert arr.flags.writeable
            assert not any(np.shares_memory(arr, c) for c in cached())
