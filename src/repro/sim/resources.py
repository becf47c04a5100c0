"""Queued resources for the simulation kernel.

Provides the primitives the substrates need:

- :class:`Resource` — a counted resource with FIFO queuing (CPU core pools,
  Vertica's MAX-CLIENT-SESSIONS connection slots, resource-pool memory).
- :class:`PriorityResource` — the same, but the wait queue is ordered by a
  per-request priority (higher first), FIFO within equal priority — the
  admission queue of a WLM resource pool.
- :class:`Mutex` — a convenience single-slot resource.
- :class:`Store` — an unbounded FIFO of items with blocking ``get`` (used
  as mailboxes between simulated processes).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.sim.kernel import Environment, Event, SimulationError
from repro.sim.trace import ChangeLog


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Usable as a context manager from non-process code paths; simulated
    processes typically ``yield`` the request and later call
    :meth:`Resource.release`.
    """

    __slots__ = ("resource", "amount")

    def __init__(self, resource: "Resource", amount: int):
        Event.__init__(self, resource.env)
        self.resource = resource
        self.amount = amount

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with FIFO granting.

    ``capacity`` units exist; a request claims ``amount`` units and blocks
    (as a pending event) until they are available.  Grants are strictly
    FIFO, which keeps the simulation deterministic.
    """

    def __init__(self, env: Environment, capacity: int, name: str = "resource"):
        if capacity <= 0:
            raise SimulationError(f"resource capacity must be positive: {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: Deque[Request] = deque()
        #: (time, units-in-use) change log for utilisation tracing
        self.usage_log = ChangeLog(env.now, 0)

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self, amount: int = 1) -> Request:
        if amount <= 0 or amount > self.capacity:
            raise SimulationError(
                f"cannot request {amount} units of {self.name!r} "
                f"(capacity {self.capacity})"
            )
        req = Request(self, amount)
        if not self._waiting and amount <= self.capacity - self._in_use:
            # The grant ``_grant`` would make: nobody is ahead of us.
            self._in_use += amount
            req.succeed(req)
            self.usage_log.record(self.env.now, self._in_use)
        else:
            self._waiting.append(req)
            self._grant()
        return req

    def release(self, request: Request) -> None:
        if request.resource is not self:
            raise SimulationError("release of a request from a different resource")
        if not request.triggered:
            # Cancelled while still queued.
            self._waiting.remove(request)
            return
        self._in_use -= request.amount
        self.usage_log.record(self.env.now, self._in_use)
        self._grant()

    def _grant(self) -> None:
        waiting = self._waiting
        while waiting and waiting[0].amount <= self.capacity - self._in_use:
            req = waiting.popleft()
            self._in_use += req.amount
            req.succeed(req)
        self.usage_log.record(self.env.now, self._in_use)


class PriorityRequest(Request):
    """A :class:`Request` with an admission priority.

    Higher ``priority`` requests are granted first; requests of equal
    priority keep strict FIFO order via a monotonic sequence number, so
    grants stay deterministic.
    """

    __slots__ = ("priority", "seq")

    def __init__(self, resource: "PriorityResource", amount: int,
                 priority: int = 0):
        super().__init__(resource, amount)
        self.priority = priority
        self.seq = next(resource._seq)

    @property
    def sort_key(self) -> Tuple[int, int]:
        return (-self.priority, self.seq)


class PriorityResource(Resource):
    """A counted resource whose wait queue is priority-ordered.

    The queue stays a deque sorted by ``(-priority, seq)``; the base
    class's head-of-queue granting and queued-cancellation logic then
    work unchanged.  Head-of-line blocking is deliberate: a large
    high-priority claim holds back smaller low-priority ones, exactly
    like a queued high-priority statement in a real resource pool.
    """

    def __init__(self, env: Environment, capacity: int, name: str = "resource"):
        super().__init__(env, capacity, name)
        self._seq = itertools.count()

    def request(self, amount: int = 1, priority: int = 0) -> PriorityRequest:
        if amount <= 0 or amount > self.capacity:
            raise SimulationError(
                f"cannot request {amount} units of {self.name!r} "
                f"(capacity {self.capacity})"
            )
        req = PriorityRequest(self, amount, priority)
        # Insert before the first queued request that sorts after us.
        index = len(self._waiting)
        while index > 0 and req.sort_key < self._waiting[index - 1].sort_key:
            index -= 1
        self._waiting.insert(index, req)
        self._grant()
        return req


class Mutex(Resource):
    """A single-slot resource."""

    def __init__(self, env: Environment, name: str = "mutex"):
        super().__init__(env, capacity=1, name=name)


class Store:
    """An unbounded FIFO store with blocking ``get``."""

    def __init__(self, env: Environment, name: str = "store"):
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; ``None`` when the store is empty."""
        return self._items.popleft() if self._items else None
