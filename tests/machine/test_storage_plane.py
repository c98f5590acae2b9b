"""StoragePlane: routing and aggregation."""


from repro.core import Engine, Tracer
from repro.machine import Cluster, MachineParams


def build(machine):
    eng = Engine()
    cluster = Cluster(eng, machine, tracer=Tracer(eng))
    return eng, cluster, cluster.storage


def completed(tier):
    """Bytes the tier's fluid server finished, per server."""
    return [s.server.bytes_completed for s in tier]


def hierarchical16():
    return MachineParams.hierarchical(16, nodes_per_rack=4, servers=2)


def test_flat_plane_is_the_legacy_single_server():
    eng, cluster, plane = build(MachineParams.xplorer8())
    assert plane.n_servers == 1
    # legacy surfaces still answer
    assert plane.servers[0].params == MachineParams.xplorer8().storage
    assert all(plane.server_index(r) == 0 for r in range(8))


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


def test_every_rank_writes_to_its_own_shard():
    eng, cluster, plane = build(hierarchical16())

    def writer(rank, nbytes):
        yield from plane.write(cluster.node(rank), nbytes)

    for rank in range(16):
        eng.process(writer(rank, 100.0 * (rank + 1)))
    eng.run()
    # ranks 0-7 on shard 0, ranks 8-15 on shard 1; nothing else holds bytes
    assert completed(plane.servers) == [
        sum(100.0 * (r + 1) for r in range(8)),
        sum(100.0 * (r + 1) for r in range(8, 16)),
    ]
    assert plane.tracer.get("storage.write_ops") == 16


def test_read_comes_back_from_the_write_target():
    """The write's target is the rank's shard; the read is served there."""
    eng, cluster, plane = build(hierarchical16())

    def roundtrip(rank, nbytes):
        yield from plane.write(cluster.node(rank), nbytes)
        yield from plane.read(cluster.node(rank), nbytes)

    eng.process(roundtrip(12, 512.0))  # shard 1
    eng.run()
    assert [s.server.jobs_completed for s in plane.servers] == [0, 2]
    assert plane.tracer.get("storage.bytes_read") == 512.0


def test_rate_factor_reaches_every_shard():
    eng, cluster, plane = build(hierarchical16())
    plane.apply_rate_factor(0.5)
    for srv in plane.servers:
        assert srv.server._rate_factor == 0.5
    assert plane.active_streams == 0
