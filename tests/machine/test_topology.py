"""Topology: rack membership, hop counts, link costs, storage sharding."""

import pytest

from repro.core import Engine
from repro.machine import (
    Cluster,
    MachineParams,
    StoragePlaneParams,
    Topology,
    TopologyParams,
)


def racks(n, per_rack):
    return Topology(n, TopologyParams(kind="racks", nodes_per_rack=per_rack))


def test_flat_is_the_default_and_degenerate():
    topo = Topology(8, TopologyParams())
    assert topo.is_flat
    assert topo.n_racks == 1
    assert all(topo.rack_of(r) == 0 for r in range(8))
    # one rack: every pair is local, zero uplink hops
    assert all(topo.hops(a, b) == 0 for a in range(8) for b in range(8))


def test_rack_membership():
    topo = racks(16, 4)
    assert topo.n_racks == 4
    assert topo.rack_of(0) == 0
    assert topo.rack_of(3) == 0
    assert topo.rack_of(4) == 1
    assert topo.rack_of(15) == 3
    # ragged last rack
    ragged = racks(10, 4)
    assert ragged.n_racks == 3
    assert ragged.rack_of(9) == 2


def test_hops():
    topo = racks(16, 4)
    assert topo.hops(0, 1) == 0  # same rack
    assert topo.hops(0, 5) == 1  # different rack: one uplink
    assert topo.hops(0, 15) == 1


def test_link_cost_latency():
    params = TopologyParams(kind="racks", nodes_per_rack=4, uplink_latency=1e-3)
    topo = Topology(32, params)
    machine = MachineParams.xplorer(32)
    link = machine.link

    # intra-rack: the base link, untouched
    assert topo.link_cost(link, 0, 1) == (link.latency, link.bandwidth)
    # across racks: the uplink's latency adder, full bandwidth, however
    # far apart the racks are
    for dst in (4, 17, 29):
        assert topo.link_cost(link, 0, dst) == (link.latency + 1e-3, link.bandwidth)


def test_flat_link_cost_is_the_base_link():
    link = MachineParams.xplorer8().link
    topo = Topology(8, TopologyParams())
    assert all(
        topo.link_cost(link, a, b) == (link.latency, link.bandwidth)
        for a in range(8)
        for b in range(8)
    )


def test_message_time_adds_the_uplink_only_across_racks():
    machine = MachineParams.hierarchical(64)  # two racks of 32
    cluster = Cluster(Engine(), machine)
    link, uplink = machine.link, machine.topology.uplink_latency
    nbytes = 4096.0
    local = link.latency + nbytes / link.bandwidth
    assert cluster.message_time(nbytes, 0, 31) == local
    assert cluster.message_time(nbytes, 0, 32) == (
        link.latency + uplink + nbytes / link.bandwidth
    )
    # no endpoints: the base link, as on the paper's machine
    assert cluster.message_time(nbytes) == local


def test_hierarchical_rack_never_exceeds_the_machine():
    m = MachineParams.hierarchical(16)  # fewer nodes than one 32-node rack
    assert m.topology.nodes_per_rack == 16
    topo = Topology(m.n_nodes, m.topology)
    assert topo.n_racks == 1
    assert all(topo.hops(0, b) == 0 for b in range(16))


def test_server_sharding_is_a_partition():
    """server_of and server_group are exact inverses: contiguous blocks
    covering every rank exactly once, for awkward N/S combinations too."""
    for n, s in [(8, 1), (8, 3), (16, 4), (10, 3), (1024, 8), (7, 7)]:
        topo = Topology(n, TopologyParams())
        seen = []
        for server in range(s):
            group = list(topo.server_group(server, s))
            for r in group:
                assert topo.server_of(r, s) == server
            seen.extend(group)
        assert seen == list(range(n))


def test_server_sharding_balance():
    topo = Topology(1024, TopologyParams())
    sizes = [len(list(topo.server_group(s, 8))) for s in range(8)]
    assert sum(sizes) == 1024
    assert max(sizes) - min(sizes) <= 1


def test_topology_params_validation():
    with pytest.raises(ValueError):
        TopologyParams(kind="mesh")
    with pytest.raises(ValueError):
        TopologyParams(kind="racks", nodes_per_rack=0)
    with pytest.raises(ValueError):
        # more servers than nodes
        MachineParams(n_nodes=4, plane=StoragePlaneParams(servers=5))


def test_hierarchical_preset_shape():
    m = MachineParams.hierarchical(1024)
    assert m.n_nodes == 1024
    assert m.topology.kind == "racks"
    assert m.plane.servers == 8  # isqrt(1024) // 4
    small = MachineParams.hierarchical(8)
    assert small.plane.servers == 1
