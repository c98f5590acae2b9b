"""Unit tests for StableStorage, Cluster and MachineParams."""

import pytest

from repro.core import Engine, Tracer
from repro.machine import Cluster, MachineParams, StableStorage, StorageParams
from repro.net import Message, Transport


def test_xplorer_preset_has_eight_nodes():
    eng = Engine()
    cluster = Cluster(eng)
    assert cluster.n_nodes == 8
    assert len(cluster.nodes) == 8


def test_each_sender_owns_one_fifo_wire():
    """Messages from one sender cross its outbound wire one at a time, in
    call order, whatever their sizes; another sender's wire runs in
    parallel."""
    eng = Engine()
    cluster = Cluster(eng)
    transport = Transport(cluster)
    arrivals = []
    for rank in range(cluster.n_nodes):
        transport.register(rank, lambda m: arrivals.append((m.src, m.tag, eng.now)))
    link = cluster.params.link
    sizes = [8 * link.bandwidth, 1, 2 * link.bandwidth]  # big, tiny, medium
    for tag, size in enumerate(sizes):
        msg = Message(src=0, dst=1 + tag, tag=tag, payload=None, seq=0, kind="app")
        msg.size = size
        eng.process(transport.send(msg))
    other = Message(src=4, dst=5, tag=9, payload=None, seq=0, kind="app")
    other.size = 1
    eng.process(transport.send(other))
    eng.run()
    from_zero = [(tag, t) for src, tag, t in arrivals if src == 0]
    assert [tag for tag, _ in from_zero] == [0, 1, 2]
    done, want = 0.0, []
    for size in sizes:
        done += cluster.message_time(size)
        want.append(pytest.approx(done))
    assert [t for _, t in from_zero] == want
    # rank 4's tiny message did not queue behind rank 0's big one
    assert (4, 9, pytest.approx(cluster.message_time(1))) in arrivals


def test_params_validation():
    with pytest.raises(ValueError):
        MachineParams(n_nodes=0)


def test_with_storage_override():
    p = MachineParams.xplorer8().with_storage(bandwidth=1e6)
    assert p.storage.bandwidth == 1e6
    assert p.n_nodes == 8
    # original untouched (frozen dataclasses)
    assert MachineParams.xplorer8().storage.bandwidth != 1e6


def test_single_write_time():
    eng = Engine()
    params = StorageParams(op_latency=0.1, bandwidth=1000.0, thrash=0.0)
    tracer = Tracer(eng)
    storage = StableStorage(eng, params, tracer=tracer)
    cluster_node = Cluster(eng).node(0)

    def proc():
        yield from storage.write(cluster_node, 500.0)

    eng.process(proc())
    eng.run()
    assert eng.now == pytest.approx(0.1 + 0.5)
    assert storage.server.bytes_completed == 500.0
    assert tracer.get("storage.bytes_written") == 500.0
    assert tracer.get("storage.write_ops") == 1


def test_concurrent_writes_contend():
    eng = Engine()
    params = StorageParams(
        op_latency=0.0, bandwidth=1000.0, thrash=0.0, app_traffic_penalty=0.0
    )
    storage = StableStorage(eng, params)
    cluster = Cluster(eng, MachineParams(n_nodes=4, storage=params))
    finish = []

    def writer(node):
        yield from cluster.storage.write(node, 1000.0)
        finish.append(eng.now)

    for node in cluster.nodes:
        eng.process(writer(node))
    eng.run()
    # 4 concurrent equal writes, fair share, no thrash -> all done at 4 s
    assert finish == [pytest.approx(4.0)] * 4


def test_background_write_marks_node_streaming():
    eng = Engine()
    cluster = Cluster(eng, MachineParams(n_nodes=2))
    node = cluster.node(0)
    seen = []

    def writer():
        yield from cluster.storage.write(node, 70000.0, background=True)

    def probe():
        yield eng.timeout(cluster.storage.servers[0].params.op_latency + 0.01)
        seen.append(node.bg_streams)

    eng.process(writer())
    eng.process(probe())
    eng.run()
    assert seen == [1]
    assert node.bg_streams == 0  # cleared after completion


def test_foreground_write_does_not_mark_streaming():
    eng = Engine()
    cluster = Cluster(eng, MachineParams(n_nodes=1))
    node = cluster.node(0)
    seen = []

    def writer():
        yield from cluster.storage.write(node, 70000.0, background=False)

    def probe():
        yield eng.timeout(0.05)
        seen.append(node.bg_streams)

    eng.process(writer())
    eng.process(probe())
    eng.run()
    assert seen == [0]


def test_read_accounting():
    eng = Engine()
    tracer = Tracer(eng)
    cluster = Cluster(eng, MachineParams(n_nodes=1), tracer=tracer)

    def reader():
        yield from cluster.storage.read(cluster.node(0), 1234.0)

    eng.process(reader())
    eng.run()
    assert cluster.storage.servers[0].server.bytes_completed == 1234.0
    assert tracer.get("storage.bytes_read") == 1234.0
    assert tracer.get("storage.read_ops") == 1
    assert tracer.get("storage.write_ops") == 0


def test_network_pressure_scales_with_streams():
    eng = Engine()
    cluster = Cluster(eng, MachineParams(n_nodes=4))
    base = cluster.network_pressure()
    assert base == 1.0
    pressures = []

    def writer(node):
        yield from cluster.storage.write(node, 1e6, background=True)

    def probe():
        yield eng.timeout(cluster.storage.servers[0].params.op_latency + 0.01)
        pressures.append(cluster.network_pressure())

    for node in cluster.nodes:
        eng.process(writer(node))
    eng.process(probe())
    eng.run()
    expected = 1.0 + cluster.params.link.storage_pressure * 4
    assert pressures == [pytest.approx(expected)]


def test_message_time_helper():
    eng = Engine()
    cluster = Cluster(eng)
    link = cluster.params.link
    assert cluster.message_time(0.0) == pytest.approx(link.latency)
    assert cluster.message_time(link.bandwidth) == pytest.approx(link.latency + 1.0)


def test_storage_write_takes_its_service_time_and_counts_bytes():
    eng = Engine()
    tracer = Tracer(eng).record()
    params = StorageParams(op_latency=0.0, bandwidth=1000.0, thrash=0.0)
    storage = StableStorage(eng, params, tracer=tracer)
    cluster = Cluster(eng, MachineParams(n_nodes=1))

    def writer():
        yield from storage.write(cluster.node(0), 500.0)

    eng.process(writer())
    eng.run()
    assert eng.now == pytest.approx(0.5)
    assert tracer.get("storage.bytes_written") == 500.0
