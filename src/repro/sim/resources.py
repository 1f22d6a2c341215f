"""Shared-resource primitives built on the event kernel.

* :class:`Resource` — counted resource with a FIFO wait queue (models a
  link, a disk controller, a dispatch slot).
* :class:`Store` — unbounded FIFO of Python objects (models a mailbox or
  message channel); ``put`` never blocks, ``get`` blocks until an item is
  available.

All methods that may block return :class:`~repro.sim.engine.Event` objects
to be yielded from a process.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.sim.engine import Environment, Event, SimulationError

__all__ = ["Resource", "Store"]


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, env: Environment, resource: "Resource") -> None:
        super().__init__(env)
        self.resource = resource


class Resource:
    """A counted resource with FIFO granting.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            ...  # hold the resource
        finally:
            resource.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._users: set[object] = set()  # Request events and fast-path tokens
        self._waiters: deque[Request] = deque()
        # instrumentation
        self.total_grants = 0
        self.peak_queue_len = 0

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def request(self) -> Request:
        req = Request(self.env, self)
        if len(self._users) < self.capacity:
            # Uncontended fast path: grant synchronously so the waiter
            # resumes without a zero-delay trip through the event queue.
            self._users.add(req)
            self.total_grants += 1
            req.succeed_now(req)
        else:
            self._waiters.append(req)
            self.peak_queue_len = max(self.peak_queue_len, len(self._waiters))
        return req

    def try_acquire(self) -> Optional[object]:
        """Non-blocking acquire: an opaque hold token when the resource
        is free, else ``None``.  Pass the token to :meth:`release`.

        Equivalent to an immediately-granted :meth:`request` but without
        building an :class:`Event`, for hot paths that would discard it.
        """
        if len(self._users) < self.capacity and self.queue_len == 0:
            token = object()
            self._users.add(token)
            self.total_grants += 1
            return token
        return None

    def release(self, req: "Request | object") -> None:
        if req not in self._users:
            raise SimulationError("releasing a request that does not hold the resource")
        self._users.discard(req)
        while self._waiters and len(self._users) < self.capacity:
            self._grant(self._waiters.popleft())

    def _grant(self, req: Request) -> None:
        """Hand a queued request the resource (asynchronously: the waiter
        is suspended mid-yield, so it must resume through the queue)."""
        self._users.add(req)
        self.total_grants += 1
        req.succeed(req)


class Store:
    """Unbounded FIFO message store.

    ``put(item)`` is immediate (returns an already-fired event so it can
    still be yielded uniformly); ``get()`` blocks until an item exists.
    """

    def __init__(self, env: Environment, name: str = "") -> None:
        self.env = env
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        # instrumentation
        self.total_puts = 0
        self.peak_depth = 0

    def __len__(self) -> int:
        return len(self._items)

    def peek(self) -> Optional[Any]:
        """Return the head item without removing it, or None when empty."""
        return self._items[0] if self._items else None

    def put(self, item: Any) -> Event:
        self.total_puts += 1
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)
            self.peak_depth = max(self.peak_depth, len(self._items))
        # The completion token never blocks; complete it synchronously so
        # fire-and-forget puts don't each leave a dead event in the queue.
        done = Event(self.env)
        done.succeed_now(item)
        return done

    def get(self) -> Event:
        ev = Event(self.env)
        if self._items:
            # Item already available: complete synchronously (see put()).
            ev.succeed_now(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None
