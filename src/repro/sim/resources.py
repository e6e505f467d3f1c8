"""Shared resources for the discrete-event kernel: FIFO stores and
capacity-limited resources (used for link queues, gateway CPUs, ...)."""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.events import Event


class Store:
    """An unbounded-or-bounded FIFO of items with blocking get/put.

    ``put(item)`` and ``get()`` both return events a process can yield.
    Semantics mirror a FIFO mailbox: gets are served in request order.

    Two allocation-saving shortcuts:

    * :meth:`put_nowait` accepts (or rejects, when full) an item without
      allocating the put-side event nobody waits on, handing the item
      straight to the oldest blocked getter when one is waiting.
    * :meth:`get` returns an already-*processed* event when an item is
      immediately available, so a yielding process is resumed inline by
      the kernel with no heap round trip.  Blocked gets still resume
      through the queue, keeping FIFO same-time ordering.
    """

    __slots__ = ("env", "capacity", "items", "_getters", "_putters")

    def __init__(self, env, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Event that fires once the item is accepted into the store."""
        evt = Event(self.env)
        if len(self.items) < self.capacity:
            evt.succeed()
            if self._getters and not self.items:
                # Direct hand-off: the oldest blocked getter takes the
                # item without the append/popleft round trip.
                self._getters.popleft().succeed(item)
            else:
                self.items.append(item)
                self._serve_getters()
        else:
            self._putters.append((evt, item))
        return evt

    def put_nowait(self, item: Any) -> bool:
        """Accept ``item`` if capacity allows; no put event is allocated.

        Returns False when the store is full (the caller counts the
        drop).  This is the per-packet path: the simulators never wait on
        the put side of their queues.
        """
        if self._getters and not self.items:
            self._getters.popleft().succeed(item)
            return True
        if len(self.items) < self.capacity:
            self.items.append(item)
            return True
        return False

    def get(self) -> Event:
        """Event that fires with the oldest item once one is available."""
        evt = Event(self.env)
        if self.items and not self._getters:
            # Inline completion: the item is here, so skip the
            # succeed-then-fire heap round trip entirely.  A process
            # yielding this event is resumed immediately by the kernel.
            evt._ok = True
            evt._value = self.items.popleft()
            evt._processed = True
            evt.callbacks = None
            # Space freed: admit a blocked putter, if any.
            if self._putters and len(self.items) < self.capacity:
                putter, item = self._putters.popleft()
                self.items.append(item)
                putter.succeed()
        else:
            self._getters.append(evt)
            self._serve_getters()
        return evt

    def clear(self) -> list[Any]:
        """Discard and return all queued items (fault injection: a crashed
        gateway or downed link flushes its buffers).  Blocked putters are
        then admitted into the freed space; pending getters keep waiting."""
        dropped = list(self.items)
        self.items.clear()
        while self._putters and len(self.items) < self.capacity:
            putter, item = self._putters.popleft()
            self.items.append(item)
            putter.succeed()
        self._serve_getters()
        return dropped

    def _serve_getters(self) -> None:
        while self._getters and self.items:
            getter = self._getters.popleft()
            getter.succeed(self.items.popleft())
            # Space freed: admit a blocked putter, if any.
            if self._putters and len(self.items) < self.capacity:
                putter, item = self._putters.popleft()
                self.items.append(item)
                putter.succeed()


class Resource:
    """A counted resource with FIFO request queue (e.g. a CPU, a channel).

    Usage::

        req = resource.request()
        yield req
        ...critical section...
        resource.release()
    """

    __slots__ = ("env", "capacity", "in_use", "_waiters")

    def __init__(self, env, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def available(self) -> int:
        """Number of free slots."""
        return self.capacity - self.in_use

    def request(self) -> Event:
        """Event that fires when a slot is granted to the caller."""
        evt = Event(self.env)
        if self.in_use < self.capacity:
            self.in_use += 1
            evt.succeed()
        else:
            self._waiters.append(evt)
        return evt

    def release(self) -> None:
        """Return a slot; hands it to the oldest waiter if any."""
        if self.in_use <= 0:
            raise RuntimeError("release() without a held slot")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1
