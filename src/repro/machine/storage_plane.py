"""The stable-storage plane: S parallel storage servers.

The paper's machine funnels every checkpoint into one host file system;
modern machines spread the fan-in over S parallel storage servers. The
plane generalises the single :class:`~repro.machine.storage.StableStorage`
to that shape while keeping S=1 *bit-identical* to the old single server
— the same object graph, the same event order, the same floats.

Routing goes through the :class:`~repro.machine.topology.Topology`:
``server_for(rank)`` is the shard server a rank's checkpoints are written
to and restored from (contiguous block sharding, ``r * S // N``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Optional

from ..core.events import Event
from .params import MachineParams
from .storage import StableStorage
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import Engine
    from ..core.tracing import Tracer
    from ..fault.injection import StorageFaultInjector
    from .node import Node

__all__ = ["StoragePlane"]


class StoragePlane:
    """S shard servers."""

    def __init__(
        self,
        engine: "Engine",
        params: MachineParams,
        topology: Topology,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.engine = engine
        self.machine_params = params
        self.topology = topology
        self.tracer = tracer
        self.n_servers = params.plane.servers
        self.servers: List[StableStorage] = [
            StableStorage(
                engine,
                params.storage,
                tracer=tracer,
                # keep the legacy server name when the plane is the old
                # single server; shard names otherwise.
                name=(
                    "stable-storage"
                    if self.n_servers == 1
                    else f"stable-storage:{i}"
                ),
            )
            for i in range(self.n_servers)
        ]
        #: fault oracle (mirrors StableStorage's surface); installed on the
        #: shard servers — the durable tier the paper's faults model.
        self.fault_injector: Optional["StorageFaultInjector"] = None
        # Exact incremental mirror of sum(srv.active_streams): pressure is
        # read once per message transfer, which dwarfs job-set changes.
        self._active_streams = 0
        for srv in self.servers:
            srv.server.on_jobs_delta = self._on_stream_delta

    # -- routing ------------------------------------------------------------

    def server_index(self, rank: int) -> int:
        """Which shard serves *rank* (contiguous blocks via the topology)."""
        return self.topology.server_of(rank, self.n_servers)

    def server_for(self, rank: int) -> StableStorage:
        """The shard server holding *rank*'s durable checkpoints."""
        return self.servers[self.server_index(rank)]

    def set_fault_injector(self, injector: Optional["StorageFaultInjector"]) -> None:
        """Install (or clear) the fault oracle on every shard server."""
        self.fault_injector = injector
        for srv in self.servers:
            srv.set_fault_injector(injector)

    def apply_rate_factor(self, factor: float) -> None:
        """Application-traffic slowdown on the shared path — every shard
        crosses the interconnect, so all of them feel it."""
        for srv in self.servers:
            srv.server.set_rate_factor(factor)

    def _on_stream_delta(self, delta: int) -> None:
        self._active_streams += delta

    @property
    def active_streams(self) -> int:
        """Concurrent transfers crossing the interconnect towards the
        storage plane (network-pressure input).

        Maintained incrementally via the servers' ``on_jobs_delta`` hook;
        always equal to ``sum(srv.active_streams for srv in self.servers)``.
        """
        return self._active_streams

    def write(
        self, node: "Node", nbytes: float, tag: str = "", background: bool = False
    ) -> Generator[Event, Any, None]:
        """Stream a capture write from *node* to its shard server. Returns
        the server's generator directly — zero extra frames, so the S=1
        plane is event-for-event the old single server."""
        return self.server_for(node.id).write(node, nbytes, tag, background)

    def read(
        self, node: "Node", nbytes: float, tag: str = ""
    ) -> Generator[Event, Any, None]:
        """Stream a restore read back from *node*'s shard server."""
        return self.server_for(node.id).read(node, nbytes, tag)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<StoragePlane servers={self.n_servers} "
            f"streams={self.active_streams}>"
        )
