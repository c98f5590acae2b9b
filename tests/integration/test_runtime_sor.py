"""End-to-end integration: SOR under every scheme, with and without crashes.

These are the load-bearing tests of the reproduction: the checkpointed and
the recovered runs must produce the exact result of the undisturbed run.
"""

import numpy as np
import pytest

from repro.apps import SOR
from repro.chklib import (
    CheckpointRuntime,
    CoordinatedScheme,
    FaultModel,
    IndependentScheme,
)
from repro.machine import MachineParams


# flops_per_cell is cranked up so the run lasts ~10 simulated seconds —
# long relative to a checkpoint write, as in the paper's workloads.
APP = dict(n=34, iters=12, flops_per_cell=2400.0)
MACHINE = MachineParams(n_nodes=4)


def make_app():
    app = SOR(**APP)
    # small process image so checkpoint writes are short relative to the
    # run and rounds complete well before the application ends.
    app.image_bytes = 64 * 1024
    return app


def run(scheme=None, fault=None, app=None, **kw):
    rt = CheckpointRuntime(
        app or make_app(),
        scheme=scheme,
        machine=MACHINE,
        seed=7,
        fault_model=fault,
        **kw,
    )
    return rt.run()


@pytest.fixture(scope="module")
def normal_report():
    return run()


def test_normal_run_matches_serial(normal_report):
    serial = SOR(**APP).serial_result(4, 7)
    assert normal_report.result["sum"] == pytest.approx(serial["sum"], rel=1e-9)


def test_normal_run_has_no_checkpoints(normal_report):
    assert normal_report.checkpoints_taken == 0
    assert normal_report.storage_bytes_written == 0
    assert normal_report.scheme == "normal"
    assert normal_report.sim_time > 0


def ckpt_times(report, k=2):
    """k checkpoint times inside the first ~60% of the normal run, spaced so
    every round (including its background writes) completes before the end."""
    step = report.sim_time / (k + 2)
    return [step * (i + 1) for i in range(k)]


@pytest.mark.parametrize(
    "factory",
    [
        CoordinatedScheme.NB,
        CoordinatedScheme.NBM,
        CoordinatedScheme.NBMS,
        CoordinatedScheme.NBS,
    ],
    ids=["nb", "nbm", "nbms", "nbs"],
)
def test_coordinated_failure_free_result_unchanged(normal_report, factory):
    scheme = factory(ckpt_times(normal_report))
    report = run(scheme=scheme)
    assert report.result["sum"] == normal_report.result["sum"]  # exact
    assert report.checkpoints_taken == 2 * 4  # 2 rounds x 4 ranks
    assert report.checkpoints_committed == 2 * 4
    assert report.sim_time >= normal_report.sim_time


@pytest.mark.parametrize("memory", [False, True], ids=["indep", "indep_m"])
def test_independent_failure_free_result_unchanged(normal_report, memory):
    factory = IndependentScheme.IndepM if memory else IndependentScheme.Indep
    scheme = factory(ckpt_times(normal_report), skew=0.05)
    report = run(scheme=scheme)
    assert report.result["sum"] == normal_report.result["sum"]
    assert report.checkpoints_taken == 2 * 4
    assert report.sim_time >= normal_report.sim_time


def test_coordinated_storage_bounded(normal_report):
    scheme = CoordinatedScheme.NB(ckpt_times(normal_report, k=3))
    report = run(scheme=scheme)
    # commit of n discards n-1: never more than 2 checkpoints per rank
    assert report.storage_peak_checkpoints <= 2 * 4


def test_independent_storage_accumulates(normal_report):
    scheme = IndependentScheme.Indep(ckpt_times(normal_report, k=3))
    report = run(scheme=scheme)
    assert report.storage_peak_checkpoints == 3 * 4  # nothing discarded


def test_coordinated_protocol_messages_flow(normal_report):
    scheme = CoordinatedScheme.NB(ckpt_times(normal_report, k=1))
    report = run(scheme=scheme)
    # 1 round on 4 ranks: 3 requests + 4*3 markers + 3 acks + 3 commits
    assert report.control_messages == 3 + 12 + 3 + 3


def test_independent_has_no_protocol_messages(normal_report):
    scheme = IndependentScheme.Indep(ckpt_times(normal_report, k=2))
    report = run(scheme=scheme)
    assert report.control_messages == 0


@pytest.mark.parametrize(
    "factory",
    [CoordinatedScheme.NB, CoordinatedScheme.NBM, CoordinatedScheme.NBMS],
    ids=["nb", "nbm", "nbms"],
)
def test_coordinated_crash_recovery_exact(normal_report, factory):
    times = ckpt_times(normal_report, k=2)
    crash_at = times[1] + 0.35 * (normal_report.sim_time / 3)
    scheme = factory(times)
    report = run(scheme=scheme, fault=FaultModel.machine_crash(crash_at))
    assert len(report.recoveries) == 1
    rec = report.recoveries[0]
    assert set(rec.line_indices.values()) == {2} or set(
        rec.line_indices.values()
    ) == {1}
    assert report.result["sum"] == normal_report.result["sum"]  # exact replay
    assert report.sim_time > normal_report.sim_time


def test_coordinated_crash_before_any_checkpoint(normal_report):
    scheme = CoordinatedScheme.NB([normal_report.sim_time * 10])  # never fires
    report = run(scheme=scheme, fault=FaultModel.machine_crash(normal_report.sim_time / 2))
    rec = report.recoveries[0]
    assert all(i == 0 for i in rec.line_indices.values())  # restart from scratch
    assert rec.domino_extent == 1.0
    assert report.result["sum"] == normal_report.result["sum"]


def test_independent_with_logging_crash_recovery_exact(normal_report):
    times = ckpt_times(normal_report, k=2)
    crash_at = times[1] + 0.3 * (normal_report.sim_time / 3)
    scheme = IndependentScheme.Indep(times, skew=0.1, logging=True)
    report = run(scheme=scheme, fault=FaultModel.machine_crash(crash_at))
    assert len(report.recoveries) == 1
    assert report.result["sum"] == normal_report.result["sum"]


def test_independent_without_logging_dominoes_but_recovers(normal_report):
    times = ckpt_times(normal_report, k=2)
    crash_at = normal_report.sim_time * 0.9
    # skew wider than an iteration so the cuts land on different iteration
    # boundaries (aligned cuts of a halo app are naturally transitless)
    scheme = IndependentScheme.Indep(
        times, skew=normal_report.sim_time / 6, logging=False
    )
    report = run(scheme=scheme, fault=FaultModel.machine_crash(crash_at))
    rec = report.recoveries[0]
    # a tightly-coupled app has no transitless line except the start
    assert rec.domino_extent == 1.0
    assert report.result["sum"] == normal_report.result["sum"]


def test_two_crashes_still_exact(normal_report):
    times = ckpt_times(normal_report, k=2)
    t = normal_report.sim_time
    scheme = CoordinatedScheme.NBM(times)
    report = run(
        scheme=scheme,
        fault=FaultModel(machine_crash_times=(times[0] + t / 6, times[1] + t / 5)),
    )
    assert len(report.recoveries) == 2
    assert report.result["sum"] == normal_report.result["sum"]


def test_blocked_time_positive_for_blocking_scheme(normal_report):
    scheme = CoordinatedScheme.NB(ckpt_times(normal_report))
    report = run(scheme=scheme)
    assert report.blocked_time > 0


def test_runtime_runs_only_once(normal_report):
    rt = CheckpointRuntime(SOR(**APP), machine=MACHINE, seed=7)
    rt.run()
    with pytest.raises(RuntimeError):
        rt.run()
