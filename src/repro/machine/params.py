"""Hardware parameter sets.

The default preset (:func:`MachineParams.xplorer8`) approximates the paper's
testbed: a Parsytec Xplorer with 8 T805 transputers (4 MB each), 20 Mbit/s
links, and stable storage on the host workstation's file system reached
through a single host interface.

Absolute magnitudes are calibration, not gospel — the reproduction targets
the *shape* of the results (who wins, by what factor, where the crossovers
are), which is governed by the ratios between compute rate, link bandwidth,
memory-copy bandwidth and stable-storage bandwidth.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

__all__ = [
    "NodeParams",
    "LinkParams",
    "StorageParams",
    "LocalDiskParams",
    "TopologyParams",
    "StoragePlaneParams",
    "MachineParams",
]


@dataclass(frozen=True)
class NodeParams:
    """One processing element (a transputer in the paper's testbed)."""

    #: sustained floating-point rate used to convert work to time (flop/s).
    cpu_flops: float = 1.5e6
    #: main-memory copy bandwidth for checkpoint buffering (bytes/s).
    mem_copy_bw: float = 20e6
    #: fractional compute slowdown while this node's checkpointer thread is
    #: streaming a buffer to stable storage (CPU/DMA interference).
    bg_write_interference: float = 0.30
    #: copy-on-write capture: cost of write-protecting one page at the cut.
    cow_mark_cost: float = 2e-6
    #: extra compute slowdown from copy-on-write page faults while the
    #: protected window is open (on top of ``bg_write_interference``).
    cow_fault_interference: float = 0.15


@dataclass(frozen=True)
class LinkParams:
    """Inter-node communication links."""

    #: one-way software + wire latency per message (s).
    latency: float = 250e-6
    #: effective payload bandwidth (bytes/s). T805 links are 20 Mbit/s raw;
    #: usable payload rate after protocol overhead is ~1.5 MB/s.
    bandwidth: float = 1.5e6
    #: fractional slowdown of a message per concurrent checkpoint stream
    #: crossing the interconnect towards the host (network pressure).
    storage_pressure: float = 0.25


@dataclass(frozen=True)
class StorageParams:
    """The stable-storage server (host file system behind the host link)."""

    #: fixed per-request cost: host round-trip, file open, seek (s).
    op_latency: float = 0.015
    #: streaming bandwidth of the storage path for a single writer (bytes/s).
    bandwidth: float = 1.2e6
    #: thrash penalty: with k concurrent transfers the aggregate bandwidth is
    #: ``bandwidth / (1 + thrash * (k - 1))`` (interleaved writes defeat
    #: sequential disk/file-server behaviour).
    thrash: float = 0.05
    #: slowdown of the storage path from competing application traffic:
    #: effective bandwidth is divided by ``1 + app_traffic_penalty * f``
    #: where f is the fraction of ranks still computing (not blocked in a
    #: checkpoint). A globally-quiescent write (Coord_NB) gets the full
    #: path; writes racing the application (Indep, all background writers)
    #: do not — the paper's own explanation of the NB-vs-Indep outcome.
    app_traffic_penalty: float = 1.0


@dataclass(frozen=True)
class LocalDiskParams:
    """Per-node local disk (the two-level stable-storage extension).

    Private to its node: no cross-node contention, no interconnect
    traversal (hence no network pressure and no app-traffic penalty).
    """

    op_latency: float = 0.004
    bandwidth: float = 5e6


@dataclass(frozen=True)
class TopologyParams:
    """How the nodes are wired together (see :mod:`repro.machine.topology`).

    The default (``kind="flat"``) is the paper's machine: every pair of
    nodes one link apart, one cost for all messages — the hierarchical
    machinery must reproduce it bit-for-bit, so flat is the degenerate
    special case of the same code path, not a parallel one.
    """

    #: "flat" (paper's single crossbar) or "racks" (nodes grouped into
    #: racks; any two racks are one uplink hop apart).
    kind: str = "flat"
    #: nodes per rack (required >= 1 for kind="racks"; ignored for flat).
    nodes_per_rack: int = 0
    #: extra one-way latency of the inter-rack uplink hop (s).
    uplink_latency: float = 50e-6

    def __post_init__(self) -> None:
        if self.kind not in ("flat", "racks"):
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if self.kind == "racks" and self.nodes_per_rack < 1:
            raise ValueError(
                f"racks topology needs nodes_per_rack >= 1, "
                f"got {self.nodes_per_rack}"
            )


@dataclass(frozen=True)
class StoragePlaneParams:
    """The stable-storage plane: S parallel servers.

    ``servers=1`` (default) is the paper's single host file system. With
    S > 1 the ranks shard onto the servers in contiguous blocks
    (``server_of(r) = r * S // N``), so storage fan-in per server is N/S.
    """

    #: number of parallel stable-storage servers (each a fluid
    #: :class:`~repro.machine.shared_server.SharedServer` with the
    #: machine's ``storage`` parameters).
    servers: int = 1

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise ValueError(f"need at least one storage server, got {self.servers}")


@dataclass(frozen=True)
class MachineParams:
    """A full machine: nodes + interconnect + stable storage."""

    n_nodes: int = 8
    node: NodeParams = dataclasses.field(default_factory=NodeParams)
    link: LinkParams = dataclasses.field(default_factory=LinkParams)
    storage: StorageParams = dataclasses.field(default_factory=StorageParams)
    local_disk: LocalDiskParams = dataclasses.field(default_factory=LocalDiskParams)
    topology: TopologyParams = dataclasses.field(default_factory=TopologyParams)
    plane: StoragePlaneParams = dataclasses.field(default_factory=StoragePlaneParams)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"need at least one node, got {self.n_nodes}")
        if self.plane.servers > self.n_nodes:
            raise ValueError(
                f"more storage servers ({self.plane.servers}) than "
                f"nodes ({self.n_nodes})"
            )

    # -- presets ------------------------------------------------------------

    @staticmethod
    def xplorer8() -> "MachineParams":
        """The paper's testbed: Parsytec Xplorer, 8 × T805."""
        return MachineParams(n_nodes=8)

    @staticmethod
    def xplorer(n_nodes: int) -> "MachineParams":
        """An Xplorer-like machine with a different node count (sweeps)."""
        return MachineParams(n_nodes=n_nodes)

    @staticmethod
    def hierarchical(
        n_nodes: int,
        nodes_per_rack: int = 32,
        servers: int | None = None,
    ) -> "MachineParams":
        """A racks × nodes machine with a multi-server storage plane.

        ``servers`` defaults to ``max(1, isqrt(N) // 4)`` so per-server
        fan-in N/S *grows* with N — the regime where staggering's
        serialisation win compounds. Per-server storage is parallel-FS
        class (10x the paper's host link) so absolute checkpoint times
        stay in the same regime as the 8-node testbed; the ratios, not
        the magnitudes, carry the results.
        """
        if servers is None:
            servers = max(1, math.isqrt(n_nodes) // 4)
        return MachineParams(
            n_nodes=n_nodes,
            storage=StorageParams(op_latency=0.005, bandwidth=12e6),
            topology=TopologyParams(
                kind="racks",
                nodes_per_rack=min(nodes_per_rack, n_nodes),
            ),
            plane=StoragePlaneParams(servers=servers),
        )

    # -- modified copies ---------------------------------------------------

    def with_storage(self, **changes: float) -> "MachineParams":
        """Copy with storage parameters overridden (bandwidth sweeps)."""
        return dataclasses.replace(
            self, storage=dataclasses.replace(self.storage, **changes)
        )
