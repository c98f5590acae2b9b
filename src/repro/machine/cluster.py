"""The complete machine: nodes + interconnect capacity + stable storage.

A :class:`Cluster` is a passive container — all behaviour lives in the parts
(nodes, storage, and the transport in :mod:`repro.net`). It also provides
the *network pressure* signal: message transfers slow down in proportion to
the number of checkpoint streams crossing the interconnect towards the host.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .node import Node
from .params import MachineParams, StorageParams
from .storage import StableStorage
from .storage_plane import StoragePlane
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import Engine
    from ..core.tracing import Tracer

__all__ = ["Cluster"]


class Cluster:
    """An Xplorer-like message-passing machine."""

    def __init__(
        self,
        engine: "Engine",
        params: Optional[MachineParams] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.engine = engine
        self.params = params or MachineParams.xplorer8()
        self.tracer = tracer
        self.topology = Topology(self.params.n_nodes, self.params.topology)
        self.nodes: List[Node] = [
            Node(engine, i, self.params.node) for i in range(self.params.n_nodes)
        ]
        #: the stable-storage plane (S shard servers); with the default
        #: flat parameters it is bit-identical to the old single
        #: StableStorage, down to the event order.
        self.storage = StoragePlane(
            engine, self.params, self.topology, tracer=tracer
        )
        #: per-node local disks (two-level stable storage): private, fast,
        #: outside the interconnect -> no contention with anything.
        disk = self.params.local_disk
        self.local_disks: List[StableStorage] = [
            StableStorage(
                engine,
                StorageParams(
                    op_latency=disk.op_latency,
                    bandwidth=disk.bandwidth,
                    thrash=0.0,
                    app_traffic_penalty=0.0,
                ),
            )
            for _ in range(self.params.n_nodes)
        ]
        #: (src, dst) -> (latency, bandwidth) of the route, filled on first
        #: use; the parameters are frozen, so a route never changes.
        self._routes: Dict[Tuple[int, int], Tuple[float, float]] = {}
        #: ranks currently blocked inside a checkpoint operation (no
        #: application traffic from them); drives the storage rate factor.
        self._blocked_ranks: set[int] = set()
        #: whole-machine quiescence (recovery restore window). Overrides the
        #: per-rank signal: interrupted writers of the dead generation still
        #: run their cleanup (``set_rank_blocked(rank, False)``) *after*
        #: recovery declares quiescence, and must not re-apply the
        #: application-traffic penalty to the restore reads.
        self._quiesced = False
        self._apply_storage_rate()

    def set_rank_blocked(self, rank: int, blocked: bool) -> None:
        """Schemes report blocking capture windows here; the storage path
        speeds up as application traffic quiesces."""
        before = len(self._blocked_ranks)
        if blocked:
            self._blocked_ranks.add(rank)
        else:
            self._blocked_ranks.discard(rank)
        if len(self._blocked_ranks) != before:
            self._apply_storage_rate()

    def set_all_blocked(self, blocked: bool) -> None:
        """Whole-machine quiescence (e.g. during recovery restore reads)."""
        self._quiesced = blocked
        if not blocked:
            self._blocked_ranks = set()
        self._apply_storage_rate()

    def _apply_storage_rate(self) -> None:
        if self._quiesced:
            active_fraction = 0.0
        else:
            active_fraction = 1.0 - len(self._blocked_ranks) / self.n_nodes
        penalty = self.params.storage.app_traffic_penalty
        self.storage.apply_rate_factor(1.0 / (1.0 + penalty * active_fraction))

    @property
    def n_nodes(self) -> int:
        return self.params.n_nodes

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def local_disk(self, node_id: int) -> StableStorage:
        return self.local_disks[node_id]

    def network_pressure(self) -> float:
        """Slowdown factor (>= 1) applied to message transfers right now.

        Each concurrent checkpoint stream crossing the interconnect adds
        ``link.storage_pressure`` of delay to application messages.
        """
        streams = self.storage.active_streams
        return 1.0 + self.params.link.storage_pressure * streams

    def message_time(
        self, nbytes: float, src: Optional[int] = None, dst: Optional[int] = None
    ) -> float:
        """Uncontended wire time of a message of *nbytes* (pressure applied
        separately by the transport at send time). With endpoints given,
        the topology's distance-dependent link cost applies; intra-rack
        and flat traffic computes the identical base expression."""
        if src is None or dst is None:
            link = self.params.link
            return link.latency + nbytes / link.bandwidth
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[(src, dst)] = self.topology.link_cost(
                self.params.link, src, dst
            )
        latency, bandwidth = route
        return latency + nbytes / bandwidth

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Cluster n={self.n_nodes}>"
