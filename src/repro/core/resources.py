"""Shared resources: capacity-limited FIFO servers.

:class:`Resource` is a FIFO server with integer capacity; contention
falls out of the queue discipline. The staggered schemes' per-server
write slot is one. It is deliberately strict-FIFO: the paper's contention
story (checkpoint writes queueing at the stable-storage server) depends on
arrival order, and FIFO keeps the simulation deterministic and easy to
reason about in tests.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque

from .errors import SimulationError
from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Engine

__all__ = ["Resource", "Request"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager so holders cannot forget to release::

        with resource.request() as req:
            yield req
            yield engine.timeout(service_time)
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.engine)
        self.resource = resource

    def cancel(self) -> None:
        """Withdraw the claim (queued or granted)."""
        self.resource._cancel(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.cancel()


class Resource:
    """A server with *capacity* identical slots and a FIFO wait queue."""

    def __init__(self, engine: "Engine", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = int(capacity)
        self.name = name
        self._users: list[Request] = []
        self._queue: Deque[Request] = deque()

    # -- claims ---------------------------------------------------------------

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._grant(req)
        else:
            self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Release a granted slot and wake the next waiter, if any."""
        if request not in self._users:
            raise SimulationError(
                f"release of a request that does not hold {self.name or 'resource'!r}"
            )
        self._users.remove(request)
        self._pump()

    def _cancel(self, request: Request) -> None:
        if request in self._users:
            self.release(request)
            return
        try:
            self._queue.remove(request)
        except ValueError:
            pass  # never queued or already granted+released: no-op

    # -- internals --------------------------------------------------------------

    def _grant(self, req: Request) -> None:
        self._users.append(req)
        req.succeed(self)

    def _pump(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            self._grant(self._queue.popleft())

    # -- introspection -----------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of slots currently granted."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of waiting requests."""
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Resource {self.name!r} {len(self._users)}/{self.capacity} "
            f"queued={len(self._queue)}>"
        )
