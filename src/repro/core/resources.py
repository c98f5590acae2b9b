"""Shared resources: capacity-limited servers and message stores.

Two primitives cover everything the machine model needs:

* :class:`Resource` — a FIFO server with integer capacity; contention
  falls out of the queue discipline. The staggered schemes' per-server
  write slot is one.
* :class:`Store` — an unbounded (or bounded) FIFO buffer of items with
  blocking ``get``. Message channels and mailboxes are Stores.

Both are deliberately strict-FIFO: the paper's contention story (checkpoint
writes queueing at the stable-storage server) depends on arrival order, and
FIFO keeps the simulation deterministic and easy to reason about in tests.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Optional

from .errors import SimulationError
from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Engine

__all__ = ["Resource", "Request", "Store", "StoreGet"]


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


class StoreGet(Event):
    """A pending ``get`` on a :class:`Store`; fires with the item."""

    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.engine)
        self.store = store

    def cancel(self) -> None:
        self.store._cancel_get(self)


class Store:
    """FIFO item buffer with blocking ``get`` and (optionally bounded) ``put``.

    ``put`` is immediate for unbounded stores (the common case for message
    channels: flow control is modelled at the link layer, not here).
    """

    def __init__(
        self,
        engine: "Engine",
        capacity: Optional[int] = None,
        name: str = "",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()

    def put(self, item: Any) -> None:
        """Append *item*; wakes the oldest waiting getter immediately."""
        if self.capacity is not None and len(self.items) >= self.capacity:
            raise SimulationError(
                f"store {self.name!r} overflow (capacity={self.capacity})"
            )
        self.items.append(item)
        self._pump()

    def get(self) -> StoreGet:
        """Take the oldest item; the returned event fires with it."""
        ev = StoreGet(self)
        self._getters.append(ev)
        self._pump()
        return ev

    def peek(self) -> Any:
        """The oldest item without removing it (raises if empty)."""
        if not self.items:
            raise SimulationError(f"peek on empty store {self.name!r}")
        return self.items[0]

    def _pump(self) -> None:
        while self._getters and self.items:
            getter = self._getters.popleft()
            getter.succeed(self.items.popleft())

    def _cancel_get(self, ev: StoreGet) -> None:
        try:
            self._getters.remove(ev)
        except ValueError:
            pass

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Store {self.name!r} items={len(self.items)} "
            f"getters={len(self._getters)}>"
        )
