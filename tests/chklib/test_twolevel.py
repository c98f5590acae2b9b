"""Two-level stable storage: correctness and accounting."""

import pytest

from repro.apps import SOR
from repro.chklib import CheckpointRuntime, CoordinatedScheme, FaultModel, IndependentScheme
from repro.machine import MachineParams

MACHINE = MachineParams(n_nodes=4)


def make_app():
    app = SOR(n=34, iters=12, flops_per_cell=2400.0)
    app.image_bytes = 64 * 1024
    return app


@pytest.fixture(scope="module")
def base():
    return CheckpointRuntime(make_app(), machine=MACHINE, seed=7).run()


def test_two_level_result_unchanged(base):
    times = [base.sim_time / 4, base.sim_time / 2]
    report = CheckpointRuntime(
        make_app(),
        scheme=CoordinatedScheme.NB(times, two_level=True),
        machine=MACHINE,
        seed=7,
    ).run()
    assert report.result["sum"] == base.result["sum"]
    assert report.scheme == "coord_nb_2l"


def test_local_disks_receive_capture_writes(base):
    times = [base.sim_time / 4, base.sim_time / 2]
    rt = CheckpointRuntime(
        make_app(),
        scheme=CoordinatedScheme.NB(times, two_level=True),
        machine=MACHINE,
        seed=7,
    )
    rt.run()
    for rank in range(4):
        assert rt.cluster.local_disk(rank).server.bytes_completed > 0
        # the trickle ships the same bytes to the global server
        rec = rt.store.get(rank, 2)
        assert rec.global_written_at is not None
        assert rec.global_written_at > rec.written_at


def test_single_level_global_written_equals_written(base):
    times = [base.sim_time / 3]
    rt = CheckpointRuntime(
        make_app(),
        scheme=CoordinatedScheme.NB(times),
        machine=MACHINE,
        seed=7,
    )
    rt.run()
    rec = rt.store.get(0, 1)
    assert rec.global_written_at == rec.written_at


def test_two_level_crash_recovery_exact_and_reads_local(base):
    times = [base.sim_time / 4, base.sim_time / 2]
    rt = CheckpointRuntime(
        make_app(),
        scheme=CoordinatedScheme.NBMS(times, two_level=True),
        machine=MACHINE,
        seed=7,
        fault_model=FaultModel.machine_crash(0.8 * base.sim_time),
    )
    restored_from = []  # (disk index, reading node)
    for i, disk in enumerate(rt.cluster.local_disks):
        def read(node, nbytes, tag="", _read=disk.read, _i=i):
            restored_from.append((_i, node.id))
            return _read(node, nbytes, tag)

        disk.read = read
    report = rt.run()
    assert report.result["sum"] == base.result["sum"]
    # every rank restored from its own disk
    assert sorted(restored_from) == [(r, r) for r in range(rt.n_ranks)]
    # the global server was not read (local disks add no counters)
    assert "storage.read_ops" not in report.counters


def test_two_level_recovery_faster_than_global(base):
    times = [base.sim_time / 4, base.sim_time / 2]

    def run_with(two_level):
        return CheckpointRuntime(
            make_app(),
            scheme=CoordinatedScheme.NB(times, two_level=two_level),
            machine=MACHINE,
            seed=7,
            fault_model=FaultModel.machine_crash(0.8 * base.sim_time),
        ).run()

    slow = run_with(False)
    fast = run_with(True)
    assert fast.recoveries[0].duration < 0.25 * slow.recoveries[0].duration
    assert fast.result == slow.result == {"sum": base.result["sum"],
                                          "n": 34, "iters": 12}


def test_independent_two_level(base):
    times = [base.sim_time / 4, base.sim_time / 2]
    report = CheckpointRuntime(
        make_app(),
        scheme=IndependentScheme.IndepM(times, two_level=True, logging=True),
        machine=MACHINE,
        seed=7,
        fault_model=FaultModel.machine_crash(0.8 * base.sim_time),
    ).run()
    assert report.result["sum"] == base.result["sum"]
    assert report.scheme == "indep_m_2l"
