"""RunReport / RecoveryEvent to_dict <-> from_dict round-trips.

The grid executor's on-disk cache (and its uniform round-trip of fresh
results) relies on serialization preserving every stored field, so that
each count read from ``counters`` reads back the same, and on the rebuilt
report comparing equal to the original after both sides are
type-normalised.
"""

import dataclasses
import json

import pytest

from repro.chklib import CheckpointRuntime, RecoveryEvent, RunReport
from repro.experiments import SchemeSpec, WorkloadSpec, interval_times
from repro.fault import FaultModel, StorageFaultSpec
from repro.machine import MachineParams

#: every name a report answers: its stored fields, then its counts
STORED = [f.name for f in dataclasses.fields(RunReport)]
NAMES = STORED + [n for n, v in vars(RunReport).items() if isinstance(v, property)]


def _full_recovery_event() -> RecoveryEvent:
    return RecoveryEvent(
        crash_time=12.5,
        line_indices={0: 2, 1: 2, 2: 1},
        rollback_checkpoints={0: 1, 1: 0, 2: 2},
        lost_time={0: 3.25, 1: 0.0, 2: 7.5},
        replayed_messages=17,
        duration=4.75,
        domino_extent=0.5,
        quarantined=3,
        restore_retries=2,
        line_consistent=False,
    )


def _full_report() -> RunReport:
    return RunReport(
        app="sor",
        scheme="Coord_NBMS",
        n_nodes=4,
        seed=7,
        sim_time=123.456,
        result={"sum": 1.5, "nested": [1, 2.0, "x"]},
        blocked_time=9.875,
        storage_peak_bytes=1 << 20,
        storage_peak_checkpoints=6,
        storage_final_bytes=4096,
        counters={
            "sync_time": 1.25,
            "copy_bytes": 512.0,
            "chk.cuts": 12.0,
            "chk.commits": 8.0,
            "storage.bytes_written": 2.5e6,
            "net.control_messages": 42.0,
            "net.control_bytes": 8400.0,
            "net.app_messages": 600.0,
            "net.app_bytes": 120000.0,
            "storage.write_faults": 5.0,
            "storage.read_faults": 4.0,
            "storage.write_retries": 3.0,
            "storage.read_retries": 2.0,
            "chk.rounds_aborted": 1.0,
            "chk.ckpt_writes_failed": 2.0,
        },
        recoveries=[_full_recovery_event()],
    )


def _roundtrip(report: RunReport) -> RunReport:
    # through actual JSON text, exactly like the on-disk cache
    return RunReport.from_dict(json.loads(json.dumps(report.to_dict())))


def test_recovery_event_roundtrip_all_fields():
    ev = _full_recovery_event()
    back = RecoveryEvent.from_dict(json.loads(json.dumps(ev.to_dict())))
    for f in dataclasses.fields(RecoveryEvent):
        assert getattr(back, f.name) == getattr(ev, f.name), f.name
    # JSON has no int-keyed dicts or tuples; from_dict must restore them
    assert all(isinstance(k, int) for k in back.line_indices)
    assert all(isinstance(k, int) for k in back.rollback_checkpoints)
    assert all(isinstance(k, int) for k in back.lost_time)


def test_to_dict_writes_the_stored_fields_only():
    assert len(STORED) == 12 and len(NAMES) == 26
    assert list(_full_report().to_dict()) == STORED


def test_run_report_roundtrip_all_fields():
    report = _full_report()
    back = _roundtrip(report)
    for name in NAMES:  # stored fields and counts alike
        assert getattr(back, name) == getattr(report, name), name
    assert back.checkpoints_taken == 12 and back.checkpoints_quarantined == 3
    assert isinstance(back.recoveries[0], RecoveryEvent)


def test_run_report_roundtrip_is_stable():
    """A second round-trip is the identity (types already normalised)."""
    once = _roundtrip(_full_report())
    twice = _roundtrip(once)
    assert once.to_dict() == twice.to_dict()
    assert json.dumps(once.to_dict(), sort_keys=True) == json.dumps(
        twice.to_dict(), sort_keys=True
    )


def test_to_dict_normalises_numpy_scalars_and_arrays():
    np = pytest.importorskip("numpy")
    report = _full_report()
    report.result = {
        "sum": np.float64(3.5),
        "count": np.int64(4),
        "grid": np.arange(6, dtype=np.float64).reshape(2, 3),
    }
    report.sim_time = np.float64(9.5)
    d = json.loads(json.dumps(report.to_dict()))  # must not raise
    assert d["result"]["sum"] == 3.5
    assert d["result"]["count"] == 4
    assert d["result"]["grid"] == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
    back = RunReport.from_dict(d)
    assert isinstance(back.sim_time, float)
    assert back.result["sum"] == 3.5


def test_real_faulted_run_roundtrips():
    """End to end: a simulation with a crash + storage faults produces a
    report whose recoveries and resilience counters survive JSON."""
    workload = WorkloadSpec.of(
        "sor-26",
        "sor",
        image_bytes=32 * 1024,
        n=26,
        iters=10,
        flops_per_cell=3000.0,
    )
    machine = MachineParams(n_nodes=4)
    base = CheckpointRuntime(workload.build(), machine=machine, seed=0).run()
    T = base.sim_time
    _interval, times = interval_times(T, rounds=2)
    report = CheckpointRuntime(
        workload.build(),
        scheme=SchemeSpec.of("coord_nbms", times).build(),
        machine=machine,
        seed=0,
        fault_model=FaultModel(
            machine_crash_times=(0.8 * T,),
            storage=StorageFaultSpec(
                write_fail_p=0.10, read_fail_p=0.10, corrupt_p=0.05
            ),
        ),
    ).run()
    assert report.recoveries, "crash must have produced a recovery"
    assert (
        report.storage_write_faults
        + report.storage_read_faults
        + report.storage_write_retries
    ) > 0, "storage faults must have been injected"

    back = _roundtrip(report)
    for name in NAMES:
        assert getattr(back, name) == getattr(report, name), name
    for ev, ev_back in zip(report.recoveries, back.recoveries):
        for f in dataclasses.fields(RecoveryEvent):
            assert getattr(ev_back, f.name) == getattr(ev, f.name), f.name
