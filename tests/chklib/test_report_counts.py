"""A report's counts are its counters.

``RunReport`` stores what is not a count; every other report field is a
read-only view of one tracer or transport counter. So a new measured
quantity is one ``tracer.add`` away from every report and from the
experiment cache: ``report.py`` and ``runtime.py`` never name it.
"""

import pytest

from repro.apps import SOR
from repro.chklib import CheckpointRuntime, CoordinatedScheme, RunReport
from repro.chklib.schemes import registry
from repro.experiments import Cell, GridExecutor, SchemeSpec, WorkloadSpec
from repro.fault import FaultModel, StorageFaultSpec
from repro.machine import MachineParams

#: each count the report names, and the counter it reads
COUNTERS = {
    "checkpoints_taken": "chk.cuts",
    "checkpoints_committed": "chk.commits",
    "storage_bytes_written": "storage.bytes_written",
    "control_messages": "net.control_messages",
    "control_bytes": "net.control_bytes",
    "app_messages": "net.app_messages",
    "app_bytes": "net.app_bytes",
    "storage_write_faults": "storage.write_faults",
    "storage_read_faults": "storage.read_faults",
    "storage_write_retries": "storage.write_retries",
    "storage_read_retries": "storage.read_retries",
    "rounds_aborted": "chk.rounds_aborted",
    "ckpt_writes_failed": "chk.ckpt_writes_failed",
}


class ProbeScheme(CoordinatedScheme):
    """Coordinated checkpointing that also counts its cuts as ``chk.probe``."""

    def _cut(self, agent, n):
        agent.runtime.tracer.add("chk.probe")
        yield from super()._cut(agent, n)


@pytest.fixture
def probe_base(monkeypatch):
    """Register :class:`ProbeScheme` as the scheme base ``probe``."""
    family = registry.FAMILIES["coordinated"]
    monkeypatch.setitem(
        registry.FAMILIES, "probe", (f"{__name__}.ProbeScheme",) + family[1:]
    )
    monkeypatch.setitem(registry.BASES, "probe", ("probe", "NB"))
    return "probe"


def test_a_new_counter_reaches_the_report_and_the_cache(probe_base, tmp_path):
    workload = WorkloadSpec.of("sor-16", "sor", image_bytes=8 * 1024, n=16, iters=6)
    machine = MachineParams(n_nodes=4)
    base = Cell(workload, machine=machine)
    T = GridExecutor(jobs=1, use_cache=False).run_cells([base])[base].sim_time
    cell = Cell(workload, SchemeSpec(probe_base, (T / 3, 2 * T / 3)), machine)

    cold = GridExecutor(jobs=1, cache_dir=tmp_path)
    fresh = cold.run_cells([cell])[cell]
    assert cold.stats.executed == 1
    assert fresh.counters["chk.probe"] == fresh.checkpoints_taken > 0
    warm = GridExecutor(jobs=1, cache_dir=tmp_path)
    cached = warm.run_cells([cell])[cell]
    assert (warm.stats.executed, warm.stats.cache_hits) == (0, 1)
    assert cached.to_dict()["counters"]["chk.probe"] == fresh.checkpoints_taken
    assert cached.to_dict() == fresh.to_dict()


def test_every_count_reads_its_counter_under_storage_faults():
    def app():
        sor = SOR(n=20, iters=8, flops_per_cell=3000.0)
        sor.image_bytes = 16 * 1024
        return sor

    machine = MachineParams(n_nodes=4)
    T = CheckpointRuntime(app(), machine=machine, seed=3).run().sim_time
    # write 2 fails and so does its one retry: round aborted; write 6
    # fails once and its retry lands; rank 1's third checkpoint rots and
    # is quarantined when the crash strikes
    rt = CheckpointRuntime(
        app(),
        scheme=CoordinatedScheme.NB([T / 5, 2 * T / 5, 3 * T / 5]),
        machine=machine,
        seed=3,
        fault_model=FaultModel(
            machine_crash_times=(0.9 * T,),
            storage=StorageFaultSpec(fail_writes_at=(2, 3, 6), corrupt_ckpts=((1, 3),)),
            max_retries=1,
        ),
    )
    report = rt.run()
    assert report.storage_write_retries > 0
    assert report.rounds_aborted > 0 and report.ckpt_writes_failed > 0
    assert report.checkpoints_quarantined > 0
    for name, counter in COUNTERS.items():
        assert getattr(report, name) == report.counters.get(counter, 0), name
    assert report.checkpoints_quarantined == sum(
        ev.quarantined for ev in report.recoveries
    )
    # the counters agree with the fault oracle's schedule and the wire's
    # own tallies
    assert rt.injector.write_attempts >= 6
    assert report.storage_write_faults == 3
    assert report.app_messages == rt.transport.messages_sent
    assert report.control_bytes == rt.transport.control_bytes


def test_a_count_is_read_only():
    report = RunReport("sor", "coord_nb", 1, 0, 1.0, None, 0.0, 0, 0, 0)
    assert report.checkpoints_taken == 0 and report.storage_bytes_written == 0.0
    with pytest.raises(AttributeError):
        report.checkpoints_taken = 3
