"""The stable-storage server.

All checkpoint data of all nodes funnels into one storage path (host link +
host file system in the paper's testbed). Concurrent writes share the path
(processor sharing) and pay a thrash penalty — this contention is the single
most important mechanism behind the paper's results.

Writes and reads are generator helpers meant for ``yield from`` inside
simulation processes; they mark the owning node as "streaming" for the
duration so the node's compute interference model can react.

Fault injection: an optional injector (see
:mod:`repro.fault.injection`) is consulted before every operation; a
failing operation completes a deterministic fraction of the transfer (a
torn write costs real time) and then raises
:class:`~repro.core.errors.StorageFault`. Callers retry with backoff.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from ..core.errors import StorageFault
from ..core.events import Event
from .params import StorageParams
from .shared_server import SharedServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import Engine
    from ..core.tracing import Tracer
    from ..fault.injection import StorageFaultInjector
    from .node import Node

__all__ = ["StableStorage"]


class StableStorage:
    """Shared stable-storage server with per-request latency and PS service."""

    def __init__(
        self,
        engine: "Engine",
        params: StorageParams,
        tracer: Optional["Tracer"] = None,
        name: str = "stable-storage",
    ) -> None:
        self.engine = engine
        self.params = params
        self.tracer = tracer
        self.server = SharedServer(
            engine,
            bandwidth=params.bandwidth,
            thrash=params.thrash,
            name=name,
        )
        #: optional fault oracle (duck-typed; see repro.fault.injection).
        self.fault_injector: Optional["StorageFaultInjector"] = None

    def set_fault_injector(self, injector: Optional["StorageFaultInjector"]) -> None:
        """Install (or clear) the fault oracle consulted per operation."""
        self.fault_injector = injector

    # -- service ------------------------------------------------------------

    @property
    def active_streams(self) -> int:
        """Concurrent transfers in flight (network-pressure input)."""
        return self.server.active_jobs

    def write(
        self,
        node: "Node",
        nbytes: float,
        tag: str = "",
        background: bool = False,
    ) -> Generator[Event, Any, None]:
        """Stream *nbytes* from *node* to stable storage.

        ``background=True`` marks the node as interference-generating for the
        duration (checkpointer-thread writes); foreground writes block the
        caller anyway, so they do not additionally slow the (idle) CPU.

        Raises :class:`StorageFault` when the fault injector fails the
        operation (after the torn transfer's partial service time).
        """
        if nbytes < 0:
            raise ValueError(f"negative write size: {nbytes}")
        verdict = self.fault_injector.on_write() if self.fault_injector else None
        if background:
            node.bg_stream_started()
        job = None
        try:
            yield self.engine.delay(self.params.op_latency)  # pooled
            if verdict is not None and verdict.fail:
                partial = nbytes * verdict.fraction
                if partial > 0:
                    job = self.server.transfer(partial, tag=tag or f"write:n{node.id}")
                    yield job.done
                    job = None
                if self.tracer:
                    self.tracer.add("storage.write_faults")
                raise StorageFault("write", tag=tag, partial_bytes=partial)
            job = self.server.transfer(nbytes, tag=tag or f"write:n{node.id}")
            yield job.done
        finally:
            if background:
                node.bg_stream_stopped()
            if job is not None and not job.done.triggered:
                # interrupted mid-transfer (crash): free the server
                self.server.cancel(job)
        if self.tracer:
            self.tracer.add("storage.bytes_written", nbytes)
            self.tracer.add("storage.write_ops")

    def read(
        self, node: "Node", nbytes: float, tag: str = ""
    ) -> Generator[Event, Any, None]:
        """Stream *nbytes* from stable storage to *node* (recovery path).

        Raises :class:`StorageFault` when the fault injector fails the
        operation.
        """
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        verdict = self.fault_injector.on_read() if self.fault_injector else None
        job = None
        try:
            yield self.engine.delay(self.params.op_latency)  # pooled
            if verdict is not None and verdict.fail:
                partial = nbytes * verdict.fraction
                if partial > 0:
                    job = self.server.transfer(partial, tag=tag or f"read:n{node.id}")
                    yield job.done
                    job = None
                if self.tracer:
                    self.tracer.add("storage.read_faults")
                raise StorageFault("read", tag=tag, partial_bytes=partial)
            job = self.server.transfer(nbytes, tag=tag or f"read:n{node.id}")
            yield job.done
        finally:
            if job is not None and not job.done.triggered:
                self.server.cancel(job)
        if self.tracer:
            self.tracer.add("storage.bytes_read", nbytes)
            self.tracer.add("storage.read_ops")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<StableStorage {self.server.name!r} "
            f"streams={self.active_streams}>"
        )
