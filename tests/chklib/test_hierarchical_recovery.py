"""Checkpointing and recovery on the hierarchical machine.

A multi-rack machine with sharded storage: checkpoints are written
through every shard server, a crash recovers the undisturbed result
from them, and a rollback rewinds only the channels the application
used.
"""

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


@pytest.fixture(scope="module")
def T():
    return CheckpointRuntime(make_app(), machine=MACHINE, seed=SEED).run().sim_time


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
@pytest.mark.parametrize("crash_frac", [0.3, 0.55])
def test_crash_recovery_keeps_the_undisturbed_result(name, crash_frac, T):
    """A crash before the first commit restarts from the initial state
    and reads nothing back; a later one reads every rank's image from
    the shards. Either way the run finishes with the undisturbed answer."""
    make_scheme = schemes(T)[name]
    undisturbed = CheckpointRuntime(
        make_app(), scheme=make_scheme(), machine=MACHINE, seed=SEED
    ).run()
    rt = CheckpointRuntime(
        make_app(),
        scheme=make_scheme(),
        machine=MACHINE,
        seed=SEED,
        fault_model=FaultModel.machine_crash(crash_frac * T),
    )
    recovered = rt.run()

    (recovery,) = recovered.recoveries
    assert recovery.line_consistent
    assert sorted(recovery.line_indices) == list(range(MACHINE.n_nodes))
    restored = min(recovery.line_indices.values()) >= 1
    assert restored == (crash_frac > 0.5)
    reads = recovered.counters.get("storage.read_ops", 0)
    assert reads == (MACHINE.n_nodes if restored else 0)
    assert recovered.result == undisturbed.result
    assert recovered.checkpoints_committed > 0


def test_storage_counters_progress_on_both_shards(T):
    """The NBMS run writes through both shard servers."""
    rt = CheckpointRuntime(
        make_app(),
        scheme=CoordinatedScheme.NBMS((T / 4, T / 2, 3 * T / 4)),
        machine=MACHINE,
        seed=SEED,
    )
    report = rt.run()
    assert report.counters["storage.write_ops"] > 0
    # every shard served its half of the ranks
    assert all(s.server.bytes_completed > 0 for s in rt.storage.servers)


def test_recovery_rewinds_only_the_channels_in_use():
    """A rollback rewinds the send sequence of channels that exist, not of
    all N·(N−1) rank pairs (4 032 keys at 64 ranks, 261 632 at 512, carried
    for the rest of the run)."""
    machine = MachineParams.hierarchical(64)

    def app():
        sor = SOR(n=4 * 64 + 2, iters=8, flops_per_cell=600.0)
        sor.image_bytes = 32 * 1024
        return sor

    plain = CheckpointRuntime(app(), machine=machine, seed=SEED).run()
    t = plain.sim_time
    crashed = CheckpointRuntime(
        app(),
        scheme=CoordinatedScheme.NBMS(
            (t / 4, t / 2, 3 * t / 4), marker_scope="peers"
        ),
        machine=machine,
        seed=SEED,
        fault_model=FaultModel.machine_crash(0.6 * t),
    )
    rb = crashed.run()

    assert min(rb.recoveries[0].line_indices.values()) >= 1  # a real rollback
    assert rb.result == plain.result
    used = {(c.rank, dst) for c in crashed.comms for dst in c.sent_counts}
    assert set(crashed.transport._next_seq) == used
    assert len(used) < 4 * 64  # halo neighbours and the reduce tree
