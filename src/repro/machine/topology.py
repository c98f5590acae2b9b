"""Hierarchical machine topology: racks, uplinks and storage sharding.

A :class:`Topology` is a pure function of :class:`TopologyParams` — it
owns no simulation state and is built from the machine parameters. It
answers three
questions for the rest of the system:

* *distance*: whether two nodes sit in different racks (one uplink hop)
  and what the effective link cost (latency, bandwidth) of that route is
  — consumed by :meth:`repro.machine.cluster.Cluster.message_time`, once
  per route;
* *sharding*: which stable-storage server a rank writes to
  (``server_of(r) = r * S // N``, contiguous blocks aligned with racks) —
  consumed by the storage plane, recovery, and the per-server staggering
  rings in :mod:`repro.chklib.schemes.coordinated`.

The flat topology (the paper's machine) is the degenerate case: one rack,
zero hops everywhere, every rank on server 0 — the exact same code path
computes the exact same floats as the pre-topology machine.
"""

from __future__ import annotations

from typing import List, Tuple

from .params import LinkParams, TopologyParams

__all__ = ["Topology"]


class Topology:
    """Node → rack layout plus the inter-rack link cost.

    Stateless: everything here is derived from frozen parameters.
    """

    def __init__(self, n_nodes: int, params: TopologyParams | None = None) -> None:
        self.params = params or TopologyParams()
        self.n_nodes = int(n_nodes)
        self.is_flat = self.params.kind == "flat"
        if self.is_flat:
            self.n_racks = 1
        else:
            per = self.params.nodes_per_rack
            self.n_racks = (self.n_nodes + per - 1) // per

    # -- locality -----------------------------------------------------------

    def rack_of(self, node_id: int) -> int:
        """The rack holding *node_id* (0 for the flat topology)."""
        if self.is_flat:
            return 0
        return node_id // self.params.nodes_per_rack

    # -- distance -----------------------------------------------------------

    def hops(self, src: int, dst: int) -> int:
        """Inter-rack uplink hops between two nodes: 0 within a rack, 1
        across racks."""
        return int(self.rack_of(src) != self.rack_of(dst))

    def link_cost(self, link: LinkParams, src: int, dst: int) -> Tuple[float, float]:
        """Effective (latency, bandwidth) of the src→dst route.

        Intra-rack (and all flat) traffic uses the base link unchanged;
        the uplink hop between racks adds ``uplink_latency`` at the full
        link bandwidth.
        """
        if self.hops(src, dst) == 0:
            return (link.latency, link.bandwidth)
        return (link.latency + self.params.uplink_latency, link.bandwidth)

    # -- storage sharding ---------------------------------------------------

    def server_of(self, rank: int, n_servers: int) -> int:
        """The stable-storage shard serving *rank*: contiguous blocks
        (``r * S // N``), aligned with the rack order. S=1 → always 0."""
        return rank * n_servers // self.n_nodes

    def server_group(self, server: int, n_servers: int) -> range:
        """All ranks sharded onto *server* (inverse of :meth:`server_of`)."""
        n = self.n_nodes
        lo = -(-server * n // n_servers)  # ceil division
        hi = -(-(server + 1) * n // n_servers)
        return range(lo, hi)

    def server_groups(self, n_servers: int) -> List[range]:
        """Rank blocks per server, in server order."""
        return [self.server_group(s, n_servers) for s in range(n_servers)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_flat:
            return f"<Topology flat n={self.n_nodes}>"
        return (
            f"<Topology racks n={self.n_nodes} "
            f"racks={self.n_racks}x{self.params.nodes_per_rack}>"
        )
