"""Durable recovery lines on the hierarchical machine.

Same contract as test_resume.py — halting at *t* and restarting from the
captured line continues bit-for-bit identically to a run that crashed at
*t* and recovered in-process — but on a multi-rack machine with two
shard servers, so the capture must cover the tracer's ``storage.*``
counters and the per-server staggering rings.
"""

import json

import pytest

from repro.apps import SOR
from repro.chklib import CheckpointRuntime, CoordinatedScheme, FaultModel
from repro.machine import MachineParams

MACHINE = MachineParams.hierarchical(16, nodes_per_rack=4, servers=2)
SEED = 11


def make_app():
    app = SOR(n=34, iters=10, flops_per_cell=2000.0)
    app.image_bytes = 48 * 1024
    return app


def _dumps(report):
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def T():
    return (
        CheckpointRuntime(make_app(), machine=MACHINE, seed=SEED).run().sim_time
    )


def schemes(T):
    times = (T / 4, T / 2, 3 * T / 4)
    return {
        "coord_nb": lambda: CoordinatedScheme.NB(times),
        "coord_nbms": lambda: CoordinatedScheme.NBMS(times),
        "coord_nbms_peers": lambda: CoordinatedScheme.NBMS(
            times, marker_scope="peers"
        ),
    }


@pytest.mark.parametrize("name", ["coord_nb", "coord_nbms", "coord_nbms_peers"])
@pytest.mark.parametrize("halt_frac", [0.3, 0.55])
def test_restart_on_hierarchical_machine_is_bitwise_identical(name, halt_frac, T):
    make_scheme = schemes(T)[name]
    halt = halt_frac * T

    ra = CheckpointRuntime(
        make_app(), scheme=make_scheme(), machine=MACHINE, seed=SEED
    ).run()
    rb = CheckpointRuntime(
        make_app(),
        scheme=make_scheme(),
        machine=MACHINE,
        seed=SEED,
        fault_model=FaultModel.machine_crash(halt),
    ).run()

    halted = CheckpointRuntime(
        make_app(), scheme=make_scheme(), machine=MACHINE, seed=SEED
    )
    halted.run(halt_at=halt)
    assert halted.halted
    resumed = CheckpointRuntime.restart_from(halted.durable_line)
    rc = resumed.run()

    assert _dumps(rc) == _dumps(rb)
    assert rc.result == ra.result


def test_storage_counters_progress_and_survive_resume(T):
    """The NBMS run writes through both shard servers, and the tracer's
    ``storage.*`` counters restore across the halt."""
    times = (T / 4, T / 2, 3 * T / 4)
    rt = CheckpointRuntime(
        make_app(),
        scheme=CoordinatedScheme.NBMS(times),
        machine=MACHINE,
        seed=SEED,
    )
    report = rt.run()
    assert report.counters["storage.write_ops"] > 0
    # every shard served its half of the ranks
    assert all(s.server.bytes_completed > 0 for s in rt.storage.servers)

    crashed = CheckpointRuntime(
        make_app(),
        scheme=CoordinatedScheme.NBMS(times),
        machine=MACHINE,
        seed=SEED,
        fault_model=FaultModel.machine_crash(0.8 * T),
    ).run()

    halted = CheckpointRuntime(
        make_app(),
        scheme=CoordinatedScheme.NBMS(times),
        machine=MACHINE,
        seed=SEED,
    )
    halted.run(halt_at=0.8 * T)
    written_at_halt = halted.tracer.get("storage.bytes_written")
    assert written_at_halt > 0
    resumed = CheckpointRuntime.restart_from(halted.durable_line)
    assert resumed.tracer.get("storage.bytes_written") == written_at_halt
    # the resumed run re-does rolled-back rounds exactly like the
    # in-process crash recovery (not like the uninterrupted run): every
    # count, each storage.* one included, is the same
    assert resumed.run().counters == crashed.counters


def test_recovery_rewinds_only_the_channels_in_use():
    """A rollback rewinds the send sequence of channels that exist, not of
    all N·(N−1) rank pairs (4 032 keys at 64 ranks, 261 632 at 512, carried
    for the rest of the run). The in-process recovery rewinds a live
    transport, the resumed one a fresh and empty one: both must end on the
    same counters and the same report."""
    machine = MachineParams.hierarchical(64)

    def app():
        sor = SOR(n=4 * 64 + 2, iters=8, flops_per_cell=600.0)
        sor.image_bytes = 32 * 1024
        return sor

    def runtime(**kw):
        return CheckpointRuntime(
            app(),
            scheme=CoordinatedScheme.NBMS(times, marker_scope="peers"),
            machine=machine,
            seed=SEED,
            **kw,
        )

    plain = CheckpointRuntime(app(), machine=machine, seed=SEED).run()
    t = plain.sim_time
    times = (t / 4, t / 2, 3 * t / 4)
    crashed = runtime(fault_model=FaultModel.machine_crash(0.6 * t))
    rb = crashed.run()
    halted = runtime()
    halted.run(halt_at=0.6 * t)
    resumed = CheckpointRuntime.restart_from(halted.durable_line)
    rc = resumed.run()

    assert min(rb.recoveries[0].line_indices.values()) >= 1  # a real rollback
    assert rb.result == plain.result
    assert _dumps(rc) == _dumps(rb)
    for rt in (crashed, resumed):
        used = {(c.rank, dst) for c in rt.comms for dst in c.sent_counts}
        assert set(rt.transport._next_seq) == used
        assert len(used) < 4 * 64  # halo neighbours and the reduce tree
