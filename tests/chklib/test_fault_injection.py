"""Unit tests for the fault-injection subsystem.

Model validation, injector determinism, retry helpers, checkpoint
integrity/quarantine mechanics, and the
headline degradation path: corrupting the latest committed checkpoint of
any rank forces recovery to fall back to an older committed line.
"""

import pytest

from repro.apps import SOR
from repro.chklib import (
    CheckpointRuntime,
    CoordinatedScheme,
    IndependentScheme,
    stable_read,
    stable_write,
)
from repro.chklib.state import Snapshot
from repro.chklib.storage_mgr import CheckpointRecord, CheckpointStore
from repro.core.engine import Engine
from repro.core.errors import StorageFault
from repro.core.rng import RngStreams
from repro.core.tracing import Tracer
from repro.fault import FaultModel, StorageFaultSpec, make_injector
from repro.machine import MachineParams
from repro.machine.params import StorageParams
from repro.machine.storage import StableStorage

# ---------------------------------------------------------------------------
# model validation


def test_fault_model_rejects_bad_machine_crash_times():
    with pytest.raises(ValueError):
        FaultModel(machine_crash_times=(-1.0,))
    with pytest.raises(ValueError):
        FaultModel(machine_crash_times=(float("nan"),))
    assert FaultModel(machine_crash_times=(5.0, 1.0)).machine_crash_times == (
        1.0,
        5.0,
    )


def test_fault_model_rejects_negative_retry_budget():
    with pytest.raises(ValueError):
        FaultModel(max_retries=-1)


def test_storage_fault_spec_validation():
    with pytest.raises(ValueError):
        StorageFaultSpec(write_fail_p=1.5)
    with pytest.raises(ValueError):
        StorageFaultSpec(corrupt_p=-0.1)
    assert not StorageFaultSpec().any_faults
    assert StorageFaultSpec(fail_reads_at=(3,)).any_faults


# ---------------------------------------------------------------------------
# injector


def test_make_injector_none_for_clean_spec():
    assert make_injector(StorageFaultSpec(), RngStreams(0)) is None


def test_scheduled_write_failures_fire_exactly_once():
    inj = make_injector(StorageFaultSpec(fail_writes_at=(2,)), RngStreams(0))
    verdicts = [inj.on_write() for _ in range(4)]
    assert [v.fail for v in verdicts] == [False, True, False, False]
    assert 0.0 <= verdicts[1].fraction <= 1.0
    assert inj.write_attempts == 4


def test_injector_is_deterministic_per_seed():
    spec = StorageFaultSpec(write_fail_p=0.4, read_fail_p=0.3, corrupt_p=0.2)

    def sequence(seed):
        inj = make_injector(spec, RngStreams(seed))
        return (
            [inj.on_write().fail for _ in range(20)],
            [inj.on_read().fail for _ in range(20)],
            [inj.corrupts_checkpoint(0, i) for i in range(20)],
        )

    assert sequence(7) == sequence(7)
    assert sequence(7) != sequence(8)  # astronomically unlikely to collide


def test_scheduled_corruption_targets_one_checkpoint():
    inj = make_injector(StorageFaultSpec(corrupt_ckpts=((1, 2),)), RngStreams(0))
    assert not inj.corrupts_checkpoint(0, 2)
    assert inj.corrupts_checkpoint(1, 2)
    assert not inj.corrupts_checkpoint(1, 3)


# ---------------------------------------------------------------------------
# checkpoint integrity and quarantine


def _record(rank=0, index=1, base_index=None):
    return CheckpointRecord(
        rank=rank,
        index=index,
        snapshot=Snapshot.capture({"x": index}),
        comm_meta={},
        taken_at=0.0,
        base_index=base_index,
    )


def test_checksum_detects_silent_corruption():
    rec = _record()
    assert rec.verify_integrity()
    rec.mark_corrupted()
    assert not rec.verify_integrity()


def test_quarantine_is_idempotent():
    store = CheckpointStore(n_ranks=1)
    rec = _record(index=1)
    store.add(rec)
    store.quarantine(0, 1)
    store.quarantine(0, 1)
    assert rec.quarantined
    # the record stays stored: it still occupies its bytes
    assert store.get(0, 1) is rec
    assert store.count() == 1 and store.total_bytes() == rec.total_bytes


def test_chain_intact_sees_through_quarantined_base():
    store = CheckpointStore(n_ranks=1)
    store.add(_record(index=1))
    store.add(_record(index=2, base_index=1))
    assert store.chain_intact(0, 2)
    store.quarantine(0, 1)
    # the increment's base is unusable, so the increment is too
    assert not store.chain_intact(0, 2)
    assert not store.chain_intact(0, 3)  # missing record


# ---------------------------------------------------------------------------
# storage faults + retry helpers (mini simulations)


class _FakeNode:
    id = 0

    def bg_stream_started(self):
        pass

    def bg_stream_stopped(self):
        pass


def _storage_sim(spec, seed=0):
    engine = Engine()
    tracer = Tracer(engine).record()
    storage = StableStorage(engine, StorageParams(), tracer=tracer)
    storage.set_fault_injector(make_injector(spec, RngStreams(seed)))
    return engine, tracer, storage


def _drive(engine, gen):
    """Run *gen* to completion; return (result, raised exception or None)."""
    box = {}

    def driver():
        try:
            box["result"] = yield from gen
        except Exception as exc:  # noqa: BLE001 - recording for asserts
            box["error"] = exc

    engine.process(driver(), name="test-driver")
    engine.run()
    return box.get("result"), box.get("error")


def test_failed_write_pays_partial_time():
    engine, tracer, storage = _storage_sim(StorageFaultSpec(fail_writes_at=(1,)))
    _, err = _drive(engine, storage.write(_FakeNode(), 1e6, tag="t"))
    assert isinstance(err, StorageFault)
    assert err.partial_bytes >= 0
    # failed ops do not count as completed writes
    assert tracer.get("storage.write_faults") == 1
    assert tracer.get("storage.write_ops") == 0
    assert tracer.get("storage.bytes_written") == 0
    # the torn transfer did run on the server
    assert storage.server.bytes_completed == err.partial_bytes


def test_stable_write_retries_until_success():
    engine, tracer, storage = _storage_sim(StorageFaultSpec(fail_writes_at=(1, 2)))
    _, err = _drive(
        engine,
        stable_write(
            storage,
            _FakeNode(),
            1e5,
            max_retries=3,
            tracer=tracer,
        ),
    )
    assert err is None
    assert tracer.get("storage.write_faults") == 2
    assert tracer.get("storage.write_ops") == 1
    assert tracer.get("storage.write_retries") == 2


def test_stable_write_exhausts_budget_and_raises():
    engine, tracer, storage = _storage_sim(StorageFaultSpec(fail_writes_at=(1, 2)))
    _, err = _drive(
        engine,
        stable_write(
            storage, _FakeNode(), 1e5, max_retries=1, tracer=tracer
        ),
    )
    assert isinstance(err, StorageFault)
    assert tracer.get("storage.write_ops") == 0


def test_stable_read_retries_until_success():
    engine, tracer, storage = _storage_sim(StorageFaultSpec(fail_reads_at=(1,)))
    _, err = _drive(
        engine,
        stable_read(
            storage,
            _FakeNode(),
            1e5,
            max_retries=2,
            tracer=tracer,
        ),
    )
    assert err is None
    assert tracer.get("storage.read_faults") == 1
    assert tracer.get("storage.read_ops") == 1
    assert tracer.get("storage.read_retries") == 1


# ---------------------------------------------------------------------------
# the headline degradation path: corrupt the latest committed checkpoint
# of a rank, crash, and watch recovery fall back to an older line


MACHINE = MachineParams(n_nodes=4)


def _app():
    app = SOR(n=20, iters=8, flops_per_cell=3000.0)
    app.image_bytes = 16 * 1024
    return app


def _baseline():
    report = CheckpointRuntime(_app(), machine=MACHINE, seed=3).run()
    return report.sim_time, report.result["sum"]


@pytest.mark.parametrize("victim", [0, 2])
def test_coordinated_falls_back_to_older_committed_line(victim):
    T, expected = _baseline()
    report = CheckpointRuntime(
        _app(),
        scheme=CoordinatedScheme.NB([T / 4, T / 2]),
        machine=MACHINE,
        seed=3,
        fault_model=FaultModel.machine_crash(
            0.9 * T, storage=StorageFaultSpec(corrupt_ckpts=((victim, 2),))
        ),
    ).run()
    (ev,) = report.recoveries
    # one rank's copy of round 2 rotted, so the *whole* line falls back.
    # Coordinated GC keeps only the latest committed round (commit of n
    # discards n-1), so the newest older committed line is the initial
    # state — graceful degradation, not failure.
    assert set(ev.line_indices.values()) == {0}
    assert ev.quarantined == 1
    assert ev.line_consistent
    assert report.checkpoints_quarantined == 1
    assert report.result["sum"] == expected


def test_independent_logging_falls_back_only_on_the_victim():
    T, expected = _baseline()
    report = CheckpointRuntime(
        _app(),
        scheme=IndependentScheme.IndepM([T / 4, T / 2], skew=T / 50, logging=True),
        machine=MACHINE,
        seed=3,
        fault_model=FaultModel.machine_crash(
            0.9 * T, storage=StorageFaultSpec(corrupt_ckpts=((1, 2),))
        ),
    ).run()
    (ev,) = report.recoveries
    # with logging, only the victim rolls back further; peers keep #2
    assert ev.line_indices[1] == 1
    assert all(ev.line_indices[r] == 2 for r in (0, 2, 3))
    assert ev.quarantined == 1
    assert ev.line_consistent
    assert report.result["sum"] == expected


def test_simultaneous_crashes_are_one_recovery():
    T, expected = _baseline()
    report = CheckpointRuntime(
        _app(),
        scheme=CoordinatedScheme.NB([T / 4, T / 2]),
        machine=MACHINE,
        seed=3,
        fault_model=FaultModel(machine_crash_times=(0.8 * T, 0.8 * T)),
    ).run()
    # the machine goes down once: the second crash at the same instant
    # does not roll the just-restored line back again
    (ev,) = report.recoveries
    assert ev.crash_time == pytest.approx(0.8 * T)
    assert report.counters["fault.crashes"] == 1
    assert report.result["sum"] == expected


def test_crashes_are_recovered_in_time_order_once_each():
    T, expected = _baseline()
    report = CheckpointRuntime(
        _app(),
        scheme=CoordinatedScheme.NB([T / 4, T / 2]),
        machine=MACHINE,
        seed=3,
        fault_model=FaultModel(machine_crash_times=(0.8 * T, 0.4 * T, 0.8 * T)),
    ).run()
    first, second = report.recoveries
    assert first.crash_time == pytest.approx(0.4 * T)
    assert second.crash_time == pytest.approx(0.8 * T)
    assert report.counters["fault.crashes"] == 2
    assert report.result["sum"] == expected


def test_recover_crash_event_carries_only_the_generation():
    T, _ = _baseline()
    rt = CheckpointRuntime(
        _app(),
        scheme=CoordinatedScheme.NB([T / 2]),
        machine=MACHINE,
        seed=3,
        fault_model=FaultModel.machine_crash(0.8 * T),
    )
    rt.run()
    # a crash takes every rank, so the event names no failed subset
    (ev,) = rt.tracer.events_named("recover.crash")
    assert ev.fields == {"gen": 1}
    assert ev.time == pytest.approx(0.8 * T)


def test_runtime_takes_its_retry_budget_from_the_fault_model():
    assert CheckpointRuntime(_app(), machine=MACHINE).max_retries == (
        FaultModel().max_retries
    )
    rt = CheckpointRuntime(
        _app(), machine=MACHINE, fault_model=FaultModel(max_retries=1)
    )
    assert rt.max_retries == 1
