"""A processing element with interference-aware computation.

A :class:`Node` converts application work (flops) into simulated time. While
the node's checkpointer thread is streaming a buffer to stable storage, the
CPU/DMA interference slows computation by the node's
``bg_write_interference`` fraction. The compute integrator is exact under
piecewise-constant rates: it re-evaluates whenever the interference state
changes, so arbitrarily long compute chunks are handled correctly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..core.events import PENDING, Event
from .params import NodeParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import Engine

__all__ = ["Node"]


class _Race(Event):
    """Fires when the first of two events fires: ``AnyOf``'s rule for two
    members, without the collected-value dict (a compute never reads the
    value)."""

    __slots__ = ()

    def __init__(self, engine: "Engine", first: Event, second: Event) -> None:
        super().__init__(engine)
        check = self._check
        first.callbacks.append(check)  # type: ignore[union-attr]
        second.callbacks.append(check)  # type: ignore[union-attr]

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self.succeed()


class Node:
    """One node: CPU model, memory-copy engine, interference bookkeeping."""

    def __init__(self, engine: "Engine", node_id: int, params: NodeParams) -> None:
        self.engine = engine
        self.id = int(node_id)
        self.params = params
        #: number of background storage streams this node is driving
        #: (0 or 1 in all the paper's schemes, but kept general).
        self.bg_streams = 0
        #: open copy-on-write windows (pages write-protected; application
        #: stores fault and pay a copy).
        self.cow_windows = 0
        self._rate_change = Event(engine)
        # metrics
        self.busy_time = 0.0
        self.flops_done = 0.0

    # -- interference ---------------------------------------------------------

    @property
    def slowdown(self) -> float:
        """Current compute slowdown factor (>= 1)."""
        factor = 1.0
        if self.bg_streams > 0:
            factor += self.params.bg_write_interference
        if self.cow_windows > 0:
            factor += self.params.cow_fault_interference
        return factor

    def bg_stream_started(self) -> None:
        """The node's checkpointer began streaming to stable storage."""
        self.bg_streams += 1
        self._bump_rate()

    def bg_stream_stopped(self) -> None:
        """The node's checkpointer finished (or aborted) its stream."""
        if self.bg_streams <= 0:
            raise RuntimeError(f"node {self.id}: bg stream underflow")
        self.bg_streams -= 1
        self._bump_rate()

    def cow_window_opened(self) -> None:
        """Pages write-protected for a copy-on-write capture."""
        self.cow_windows += 1
        self._bump_rate()

    def cow_window_closed(self) -> None:
        if self.cow_windows <= 0:
            raise RuntimeError(f"node {self.id}: CoW window underflow")
        self.cow_windows -= 1
        self._bump_rate()

    def _bump_rate(self) -> None:
        old, self._rate_change = self._rate_change, Event(self.engine)
        old.defused = True
        old.succeed(None)

    # -- work ------------------------------------------------------------------

    def compute(self, flops: float) -> Generator[Event, Any, None]:
        """Spend CPU time on *flops* of work, tracking interference exactly.

        Usage inside a simulation process: ``yield from node.compute(w)``.
        """
        if flops < 0:
            raise ValueError(f"negative work: {flops}")
        engine = self.engine
        remaining = float(flops)
        while remaining > 1e-9:
            rate = self.params.cpu_flops / self.slowdown
            t0 = engine.now
            finish = engine.timeout(remaining / rate)
            change = self._rate_change
            either = _Race(engine, finish, change)
            yield either
            elapsed = engine.now - t0
            done = rate * elapsed
            remaining -= done
            self.busy_time += elapsed
            self.flops_done += done
            if finish.processed:
                # `either` has fired, so its subscription on the (usually
                # still pending) rate-change event is a no-op callback;
                # left there, every compute would stay alive until the
                # next rate bump.
                if change.callbacks is not None:
                    change.callbacks.remove(either._check)
                break

    def compute_time(self, flops: float) -> float:
        """Uncontended duration of *flops* of work (planning helper)."""
        return flops / self.params.cpu_flops

    def mem_copy(self, nbytes: float) -> Generator[Event, Any, None]:
        """Block for a main-memory copy of *nbytes* (checkpoint buffering)."""
        if nbytes < 0:
            raise ValueError(f"negative copy size: {nbytes}")
        yield self.engine.delay(nbytes / self.params.mem_copy_bw)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Node {self.id} bg_streams={self.bg_streams}>"
