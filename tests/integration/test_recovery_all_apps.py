"""Crash + rollback + replay must reproduce the undisturbed result for
every application and both scheme classes."""

import pytest

from repro.apps import ASP, SOR, Gauss, Ising, NBody, NQueens, TSP
from repro.chklib import (
    CheckpointRuntime,
    CoordinatedScheme,
    FaultModel,
    IndependentScheme,
)
from repro.machine import MachineParams

SEED = 5
MACHINE = MachineParams(n_nodes=4)

APP_FACTORIES = {
    "sor": lambda: SOR(n=26, iters=10, flops_per_cell=3000.0),
    "ising": lambda: Ising(n=24, iters=8, flops_per_cell=5000.0),
    "asp": lambda: ASP(n=36, flops_per_cell=900.0),
    "nbody": lambda: NBody(n=48, iters=6, flops_per_pair=4000.0),
    "gauss": lambda: Gauss(n=40, flops_per_cell=900.0),
    "tsp": lambda: TSP(n_cities=9, flops_per_node=3000.0),
    "nqueens": lambda: NQueens(n=8, flops_per_node=2000.0),
}


def make_app(name):
    app = APP_FACTORIES[name]()
    app.image_bytes = 32 * 1024
    return app


def run(name, scheme=None, fault=None):
    rt = CheckpointRuntime(
        make_app(name), scheme=scheme, machine=MACHINE, seed=SEED, fault_model=fault
    )
    return rt.run()


@pytest.fixture(scope="module")
def baselines():
    return {name: run(name) for name in APP_FACTORIES}


def result_key(report):
    r = report.result
    for key in ("sum", "magnetisation", "distsum", "pos_sum", "x_sum",
                "optimum", "solutions"):
        if key in r:
            return r[key]
    raise AssertionError(f"no result key in {r}")


@pytest.mark.parametrize("name", sorted(APP_FACTORIES))
def test_coordinated_crash_recovery_exact(baselines, name):
    base = baselines[name]
    t = base.sim_time
    scheme = CoordinatedScheme.NBM([t / 4, t / 2])
    report = run(name, scheme=scheme, fault=FaultModel.machine_crash(0.8 * t))
    assert len(report.recoveries) == 1
    assert result_key(report) == result_key(base)
    assert report.sim_time > base.sim_time


@pytest.mark.parametrize("name", sorted(APP_FACTORIES))
def test_independent_logging_crash_recovery_exact(baselines, name):
    base = baselines[name]
    t = base.sim_time
    scheme = IndependentScheme.IndepM([t / 4, t / 2], skew=t / 50, logging=True)
    report = run(name, scheme=scheme, fault=FaultModel.machine_crash(0.8 * t))
    assert len(report.recoveries) == 1
    assert result_key(report) == result_key(base)


@pytest.mark.parametrize("name", ["tsp", "nqueens"])
def test_independent_no_logging_loosely_coupled_no_domino(baselines, name):
    """Workers that never talk mid-run have transitless lines everywhere:
    independent checkpointing recovers them without logging or domino."""
    base = baselines[name]
    t = base.sim_time
    scheme = IndependentScheme.Indep([t / 4, t / 2], skew=t / 50, logging=False)
    report = run(name, scheme=scheme, fault=FaultModel.machine_crash(0.8 * t))
    rec = report.recoveries[0]
    assert rec.domino_extent < 1.0
    assert result_key(report) == result_key(base)


@pytest.mark.parametrize("name", ["sor", "ising", "asp"])
def test_independent_no_logging_tightly_coupled_dominoes(baselines, name):
    """With timer skew larger than an iteration, ranks cut at different
    iteration boundaries; without logging no transitless line exists above
    the initial state and the rollback cascades (domino effect)."""
    base = baselines[name]
    t = base.sim_time
    scheme = IndependentScheme.Indep([t / 4, t / 2], skew=t / 6, logging=False)
    report = run(name, scheme=scheme, fault=FaultModel.machine_crash(0.85 * t))
    rec = report.recoveries[0]
    assert rec.domino_extent == 1.0  # rolled all the way back
    assert result_key(report) == result_key(base)  # ... but still correct


@pytest.mark.parametrize("name", ["sor", "ising"])
def test_independent_aligned_timers_find_boundary_line(baselines, name):
    """Counter-case: with negligible skew all ranks cut at the same
    iteration boundary, where halo-exchange apps are naturally transitless
    — independent checkpointing recovers without domino. The domino risk
    is a function of cut misalignment, not of the app alone."""
    base = baselines[name]
    t = base.sim_time
    scheme = IndependentScheme.Indep([t / 4, t / 2], skew=t / 1000, logging=False)
    report = run(name, scheme=scheme, fault=FaultModel.machine_crash(0.85 * t))
    rec = report.recoveries[0]
    assert rec.domino_extent == 0.0
    assert result_key(report) == result_key(base)
