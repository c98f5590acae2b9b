"""Coordinated schemes on the hierarchical machine: per-server staggering
rings, per-server NBS write slots, peers-scoped markers.

The paper's staggering serialises all writers through the one host file
system with a single token ring. With S shard servers the ring splits
into S independent rings — one per server group — so the writes still
serialise *within* each server (no thrash) while the servers proceed in
parallel. At S=1 the ring must reduce exactly to the legacy global ring.
"""

import pytest

from repro.apps import SOR
from repro.chklib import CheckpointRuntime, CoordinatedScheme
from repro.machine import MachineParams

SEED = 7


def make_app():
    app = SOR(n=30, iters=10, flops_per_cell=2400.0)
    app.image_bytes = 64 * 1024
    return app


HIER8 = MachineParams.hierarchical(8, nodes_per_rack=4, servers=2)
FLAT8 = MachineParams.xplorer8()


def run_sor(scheme=None, machine=FLAT8):
    rt = CheckpointRuntime(make_app(), scheme=scheme, machine=machine, seed=SEED)
    return rt, rt.run()


@pytest.fixture(scope="module")
def T_flat():
    return run_sor()[1].sim_time


@pytest.fixture(scope="module")
def T_hier():
    return run_sor(machine=HIER8)[1].sim_time


def test_single_server_ring_matches_legacy(T_flat):
    """S=1: one ring over all ranks, next = (r+1) % N, leader = coordinator."""
    scheme = CoordinatedScheme.NBMS([T_flat / 2])
    rt, report = run_sor(scheme=scheme)
    assert scheme._ring_next == {r: (r + 1) % 8 for r in range(8)}
    assert scheme._ring_leader == {r: 0 for r in range(8)}


def test_two_server_rings_are_per_group(T_hier):
    scheme = CoordinatedScheme.NBMS([T_hier / 2])
    rt, report = run_sor(scheme=scheme, machine=HIER8)
    # server 0 serves ranks 0..3 (leader: the coordinator, rank 0),
    # server 1 serves ranks 4..7 (leader: its smallest rank).
    assert scheme._ring_next == {
        0: 1, 1: 2, 2: 3, 3: 0,
        4: 5, 5: 6, 6: 7, 7: 4,
    }
    assert scheme._ring_leader == {r: (0 if r < 4 else 4) for r in range(8)}


def test_staggered_writes_serialise_within_each_server(T_hier):
    scheme = CoordinatedScheme.NBMS([T_hier / 2])
    rt, report = run_sor(scheme=scheme, machine=HIER8)
    for srv in rt.storage.servers:
        assert srv.server.peak_concurrency == 1
        assert srv.server.bytes_completed > 0


def test_unstaggered_writes_collide_within_a_server(T_hier):
    scheme = CoordinatedScheme.NBM([T_hier / 2])
    rt, report = run_sor(scheme=scheme, machine=HIER8)
    assert max(srv.server.peak_concurrency for srv in rt.storage.servers) > 1


def test_nbs_write_slots_are_per_server(T_hier):
    scheme = CoordinatedScheme.NBS([T_hier / 2])
    rt, report = run_sor(scheme=scheme, machine=HIER8)
    assert sorted(scheme._write_slot) == [0, 1]
    for srv in rt.storage.servers:
        assert srv.server.peak_concurrency == 1


def test_staggering_beats_collision_on_the_hierarchical_machine(T_hier):
    _, nbm = run_sor(scheme=CoordinatedScheme.NBM([T_hier / 2]), machine=HIER8)
    _, nbms = run_sor(scheme=CoordinatedScheme.NBMS([T_hier / 2]), machine=HIER8)
    assert nbms.sim_time < nbm.sim_time


def test_peers_markers_match_all_markers_result(T_flat):
    """Peers-scoped markers change the marker fan-out, not the answer."""
    _, full = run_sor(scheme=CoordinatedScheme.NBMS([T_flat / 2]))
    scheme = CoordinatedScheme.NBMS([T_flat / 2], marker_scope="peers")
    _, scoped = run_sor(scheme=scheme)
    assert scoped.result == full.result
    # SOR's graph degree (<= 4 at 8 ranks) < all-pairs (7): fewer control
    # messages overall.
    assert scoped.control_messages < full.control_messages


def test_peers_markers_follow_the_declared_graph(T_flat):
    scheme = CoordinatedScheme.NBMS([T_flat / 2], marker_scope="peers")
    rt, _ = run_sor(scheme=scheme)
    targets = scheme._marker_targets(rt, 2)
    assert targets == sorted(set(make_app().comm_peers(2, 8)))


def test_marker_scope_is_validated():
    with pytest.raises(ValueError):
        CoordinatedScheme.NBMS([1.0], marker_scope="everyone")


def test_marker_scope_peers_without_graph_falls_back_to_all(T_flat):
    """An application that declares no communication graph keeps the
    all-pairs flood even under marker_scope="peers"."""

    class Opaque(SOR):
        def comm_peers(self, rank, size):
            return None

    app = Opaque(n=30, iters=10, flops_per_cell=2400.0)
    app.image_bytes = 64 * 1024
    scheme = CoordinatedScheme.NBMS([T_flat / 2], marker_scope="peers")
    rt = CheckpointRuntime(app, scheme=scheme, machine=FLAT8, seed=SEED)
    rt.run()
    assert scheme._marker_targets(rt, 2) == [r for r in range(8) if r != 2]
