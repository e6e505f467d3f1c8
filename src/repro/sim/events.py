"""Events for the discrete-event kernel.

An :class:`Event` marks a one-shot completion, such as a flow's
``done``: callers run the simulation until it fires or join several
with :class:`AllOf`.  Triggering one schedules its ``_fire`` as an
ordinary callback entry, so events take their place in the same FIFO
order as every other entry.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from repro.sim.errors import SimulationError


class Event:
    """A one-shot occurrence callbacks and ``run(until=...)`` can wait on.

    Life cycle: *pending* → ``succeed``/``fail`` (triggered, queued) →
    *processed* (callbacks ran).  Callbacks receive the event; a failed
    event raises its exception from ``run(until=event)``.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed")

    def __init__(self, env):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._processed = False

    # -- state -------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() was called."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once the event fired and its callbacks ran."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only valid when triggered)."""
        return bool(self._ok)

    @property
    def failed(self) -> bool:
        """True if the event carries an exception."""
        return self._ok is False

    @property
    def value(self) -> Any:
        """The event's value (or exception instance when failed)."""
        return self._value

    # -- triggering ----------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``; it fires
        ``delay`` seconds from now."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self.env.call_later(delay, self._fire)
        self._ok = True
        self._value = value
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception, raised from
        ``run(until=event)``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self.env.call_later(delay, self._fire)
        self._ok = False
        self._value = exception
        return self

    # -- firing ----------------------------------------------------------
    def _fire(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        for cb in callbacks or ():
            cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb`` to run when the event fires (immediately if done)."""
        if self.callbacks is None:
            cb(self)
        else:
            self.callbacks.append(cb)


class AllOf(Event):
    """Fires when all constituent events fired; value maps index → value.

    Values are accumulated incrementally per completion (O(1) amortized),
    not by re-scanning the full event list when the last one fires —
    large fan-ins (collectives) stay O(n) overall.  The first constituent
    to fail fails it with the same exception.
    """

    __slots__ = ("_events", "_done", "_values")

    def __init__(self, env, events: list[Event]):
        super().__init__(env)
        self._events = events
        self._done = 0
        self._values: dict[int, Any] = {}
        if not events:
            self.succeed({})
            return
        for i, ev in enumerate(events):
            ev.add_callback(partial(self._check, i))

    def _check(self, index: int, event: Event) -> None:
        if self._ok is not None:
            return
        if event._ok is False:
            self.fail(event._value)
            return
        self._values[index] = event._value
        self._done += 1
        if self._done == len(self._events):
            self.succeed(self._values)
