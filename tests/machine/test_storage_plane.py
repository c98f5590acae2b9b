"""StoragePlane: routing, aggregation, burst-buffer drains, capture."""

import pytest

from repro.chklib.resume import capture_fields
from repro.core import Engine, Tracer
from repro.machine import Cluster, MachineParams


def build(machine):
    eng = Engine()
    cluster = Cluster(eng, machine, tracer=Tracer(eng))
    return eng, cluster, cluster.storage


def completed(tier):
    """Bytes the tier's fluid server finished, per server."""
    return [s.server.bytes_completed for s in tier]


def hierarchical16(**kw):
    return MachineParams.hierarchical(16, nodes_per_rack=4, servers=2, **kw)


def test_flat_plane_is_the_legacy_single_server():
    eng, cluster, plane = build(MachineParams.xplorer8())
    assert plane.n_servers == 1
    assert not plane.has_burst_buffers
    # legacy surfaces still answer
    assert plane.servers[0].params == MachineParams.xplorer8().storage
    assert plane.server is plane.servers[0].server
    assert all(plane.server_index(r) == 0 for r in range(8))


def test_multi_server_plane_refuses_the_single_server_surface():
    eng, cluster, plane = build(hierarchical16())
    assert plane.n_servers == 2
    with pytest.raises(ValueError):
        plane.server


def test_write_routes_to_the_ranks_shard():
    eng, cluster, plane = build(hierarchical16())

    def writer(rank, nbytes):
        yield from plane.write(cluster.node(rank), nbytes, tag=f"w{rank}")

    eng.process(writer(0, 1000.0))
    eng.process(writer(15, 3000.0))
    eng.run()
    assert completed(plane.servers) == [1000.0, 3000.0]
    # the counters sum the tiers
    assert plane.tracer.get("storage.bytes_written") == 4000.0
    assert plane.tracer.get("storage.write_ops") == 2


def test_burst_buffer_write_lands_on_the_rack_buffer():
    eng, cluster, plane = build(hierarchical16(burst_buffers=True))
    assert plane.has_burst_buffers
    assert len(plane.burst_buffers) == 4  # one per rack

    def writer(rank, nbytes):
        yield from plane.write(cluster.node(rank), nbytes)

    eng.process(writer(5, 2000.0))  # rack 1
    eng.run()
    assert completed(plane.burst_buffers) == [0.0, 2000.0, 0.0, 0.0]
    assert completed(plane.servers) == [0.0, 0.0]
    assert plane.tracer.get("storage.bytes_written") == 2000.0


def test_drain_moves_bytes_without_double_counting():
    eng, cluster, plane = build(hierarchical16(burst_buffers=True))

    def writer_then_drain(rank, nbytes):
        yield from plane.write(cluster.node(rank), nbytes)
        yield from plane.drain(cluster.node(rank), nbytes)

    eng.process(writer_then_drain(10, 4096.0))  # rack 2, shard 1
    eng.run()
    # counted once at the buffer; the drain has its own counters
    assert plane.tracer.get("storage.bytes_written") == 4096.0
    assert plane.tracer.get("storage.write_ops") == 1
    assert plane.tracer.get("storage.drained_bytes") == 4096.0
    assert plane.tracer.get("storage.drain_ops") == 1
    # ...and the bytes crossed both tiers
    assert completed(plane.burst_buffers)[2] == 4096.0
    assert completed(plane.servers) == [0.0, 4096.0]


def test_read_comes_back_from_the_write_target():
    eng, cluster, plane = build(hierarchical16(burst_buffers=True))

    def roundtrip(rank, nbytes):
        yield from plane.write(cluster.node(rank), nbytes)
        yield from plane.read(cluster.node(rank), nbytes)

    eng.process(roundtrip(3, 512.0))
    eng.run()
    assert plane.burst_buffers[0].server.jobs_completed == 2  # write + read
    assert completed(plane.servers) == [0.0, 0.0]
    assert plane.tracer.get("storage.bytes_read") == 512.0


def test_rate_factor_and_pressure_skip_burst_buffers():
    eng, cluster, plane = build(hierarchical16(burst_buffers=True))
    plane.apply_rate_factor(0.5)
    for srv in plane.servers:
        assert srv.server._rate_factor == 0.5
    for bb in plane.burst_buffers:
        assert bb.server._rate_factor == 1.0
    assert plane.active_streams == 0


def test_export_restore_roundtrip():
    eng, cluster, plane = build(hierarchical16(burst_buffers=True))

    def writer(rank, nbytes):
        yield from plane.write(cluster.node(rank), nbytes)
        yield from plane.drain(cluster.node(rank), nbytes)

    eng.process(writer(0, 100.0))
    eng.run()
    state = plane.export_state(capture_fields)
    # every count is a tracer counter: what is captured is the shape
    assert state == {"servers": [{}, {}], "burst_buffers": [{}] * 4}

    eng2, cluster2, plane2 = build(hierarchical16(burst_buffers=True))
    plane2.restore_state(state)
    assert plane2.export_state(capture_fields) == state


def test_restore_rejects_shape_change():
    eng, cluster, plane = build(hierarchical16())
    state = plane.export_state(capture_fields)
    eng2, cluster2, plane2 = build(
        MachineParams.hierarchical(16, nodes_per_rack=4, servers=4)
    )
    with pytest.raises(ValueError):
        plane2.restore_state(state)
