"""Hold sizes, not bytes: what a checkpoint pins on the host, and when.

``CheckpointRuntime.run()`` decides once whether anything can ever
restore (a fault model can crash the run). When nothing can,
checkpoint images keep ``nbytes`` + CRC and recorded messages keep
``size``; the selection must never move a reported number, and asking a
size-only object for its bytes is a typed error, not garbage.
"""

import gc
import tracemalloc

import pytest

from repro.apps import SOR
from repro.chklib import CheckpointRuntime, FaultModel
from repro.core.errors import SizeOnlyError
from repro.experiments import GridResults, cell_key, run_cell
from repro.experiments.grid import interval_times
from repro.experiments.harness import SCHEMES_TABLE1, make_scheme
from repro.experiments.scale import scale_spec
from repro.machine import MachineParams
from repro.net.message import SIZE_ONLY

MACHINE = MachineParams(n_nodes=4)
SEED = 7
ROUNDS = 2


def make_app():
    app = SOR(n=30, iters=10, flops_per_cell=2400.0)
    app.image_bytes = 64 * 1024
    return app


@pytest.fixture(scope="module")
def T():
    return CheckpointRuntime(make_app(), machine=MACHINE, seed=SEED).run().sim_time


def runtime(name, T, **kw):
    interval, times = interval_times(T, ROUNDS)
    return CheckpointRuntime(
        make_app(),
        scheme=make_scheme(name, times, interval),
        machine=MACHINE,
        seed=SEED,
        **kw,
    )


def records(rt):
    return [rec for r in range(rt.n_ranks) for rec in rt.store.chain(r)]


def recorded_messages(rt):
    return [m for rec in records(rt) for m in rec.log_annex + rec.channel_msgs]


# -- the selection never moves a reported number --------------------------------


@pytest.mark.parametrize("name", SCHEMES_TABLE1)
def test_report_is_the_same_with_and_without_bytes(name, T):
    sized = runtime(name, T)
    plain = sized.run().to_dict()
    assert not sized.keeps_bytes
    assert records(sized), "the run took no checkpoint: nothing compared"
    for rec in records(sized):
        with pytest.raises(SizeOnlyError):
            rec.snapshot.blob
    assert all(m.payload is SIZE_ONLY for m in recorded_messages(sized))

    kept = runtime(name, T, fault_model=FaultModel())
    assert kept.run().to_dict() == plain
    assert kept.keeps_bytes
    assert all(rec.snapshot.restore() for rec in records(kept))
    assert all(m.payload is not SIZE_ONLY for m in recorded_messages(kept))


# -- host memory: a logging cell costs what an uncheckpointed one does --------------


def traced_peak(cell) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        run_cell(cell)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_logging_cells_peak_near_the_uncheckpointed_baseline():
    """64 ranks, fault-free: the sender logs of ``cic`` and
    ``indep_m_mlog`` used to pin every halo row ever sent (5x the
    baseline cell's peak here, 410 MB at 512 ranks)."""
    spec = scale_spec(ns=[64], seed=SEED, scale=0.2)
    (base,) = spec.baselines
    results = GridResults()
    results.put(cell_key(base), run_cell(base))  # also warms lazy imports
    cells = dict(zip(SCHEMES_TABLE1, spec.plan(results)))
    baseline = traced_peak(base)
    for name in ("cic", "indep_m_mlog"):
        assert traced_peak(cells[name]) < 2 * baseline, name


# -- bytes a size-only run does not have are refused, not invented -----------------


def test_size_only_run_refuses_restore_and_replay(T):
    rt = runtime("cic", T)
    rt.run()
    rec = next(rec for rec in records(rt) if rec.log_annex)
    with pytest.raises(SizeOnlyError, match="size, not its bytes"):
        rec.snapshot.restore()
    logged = rec.log_annex[0]
    assert logged.size > 0 and logged.payload is SIZE_ONLY
    with pytest.raises(SizeOnlyError, match="cannot replay"):
        rt.transport.deliver_local(logged.shell_copy())


@pytest.mark.parametrize("name", ["coord_nbm", "cic"])
def test_faulted_runs_hold_real_bytes(name, T):
    faulted = runtime(name, T, fault_model=FaultModel.machine_crash(0.55 * T))
    faulted.run()
    assert faulted.keeps_bytes
    assert records(faulted)
    assert all(isinstance(rec.snapshot.restore(), dict) for rec in records(faulted))
    assert all(m.payload is not SIZE_ONLY for m in recorded_messages(faulted))
    assert len(faulted.recoveries) == 1
