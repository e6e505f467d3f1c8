"""Events and processes for the discrete-event kernel.

Everything here sits on the per-packet hot path of the network
simulator, so the classes use ``__slots__`` (no per-instance ``__dict__``)
and the process machinery avoids re-creating bound methods or helper
events where it can.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Optional

from repro.sim.errors import Interrupt, SimulationError


def _cancelled(event: "Event") -> None:
    """Tombstone left in a callback slot by :meth:`Process.interrupt`."""


class _Bootstrap:
    """Singleton stand-in for the first resume of a process generator.

    ``Process._resume`` only reads ``_ok`` and ``_value`` from the event
    it is woken by; sharing one immutable instance saves allocating a
    real :class:`Event` per process spawn.
    """

    __slots__ = ()
    _ok = True
    _value = None


_BOOTSTRAP = _Bootstrap()


class Event:
    """A one-shot occurrence processes can wait on.

    Life cycle: *pending* → ``succeed``/``fail`` (triggered, queued) →
    *processed* (callbacks ran).  Waiting processes register callbacks;
    the value (or exception) is delivered into their generators.

    ``defused`` is a write-only marker slot (set when a failure has a
    designated handler); it is deliberately left unset until written.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed", "defused")

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
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self, delay)
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


class Timeout(Event):
    """An event that fires a fixed delay after creation."""

    __slots__ = ("delay",)

    def __init__(self, env, delay: float, value: Any = None):
        super().__init__(env)
        if not delay >= 0:
            raise ValueError(f"negative timeout delay {delay}")
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay)


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator yields :class:`Event` s.  When a yielded event fires,
    the kernel resumes the generator with the event's value (or throws the
    event's exception into it).

    ``_resume`` is the bound resume callback, created once at spawn so
    registering it per yield does not allocate a fresh bound method, and
    so :meth:`interrupt` can find (and tombstone) its exact slot in the
    target event's callback list in O(1).
    """

    __slots__ = ("_generator", "_target", "_target_slot", "_resume")

    def __init__(self, env, generator: Generator):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise TypeError("Process needs a generator")
        self._generator = generator
        self._target: Optional[Event] = None
        self._target_slot = 0
        self._resume = self._do_resume
        # Bootstrap: resume the process at time now (callback form — no
        # throwaway init Event needs to be allocated).
        env.call_later(0.0, self._resume, _BOOTSTRAP)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._ok is not None:
            raise SimulationError("cannot interrupt a finished process")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from the event we were waiting on and schedule the throw.
        evt = Event(self.env)
        evt._ok = False
        evt._value = Interrupt(cause)
        evt.defused = True
        target = self._target
        if target is not None and target.callbacks is not None:
            # O(1) detach: overwrite our known slot with a tombstone
            # instead of a linear callbacks.remove() scan.
            slot = self._target_slot
            cbs = target.callbacks
            if slot < len(cbs) and cbs[slot] is self._resume:
                cbs[slot] = _cancelled
        self._target = None
        self.env.schedule(evt)
        evt.add_callback(self._resume)

    def _do_resume(self, event: Event) -> None:
        env = self.env
        env._active_proc = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    event.defused = True
                    target = generator.throw(event._value)
            except StopIteration as stop:
                env._active_proc = None
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                return
            except BaseException as exc:
                env._active_proc = None
                self._ok = False
                self._value = exc
                env.schedule(self)
                return

            if not isinstance(target, Event):
                env._active_proc = None
                generator.throw(
                    TypeError(f"process yielded a non-event: {target!r}")
                )
                return
            callbacks = target.callbacks
            if callbacks is None:
                # Already fired: loop and deliver immediately.
                event = target
                continue
            self._target = target
            self._target_slot = len(callbacks)
            callbacks.append(self._resume)
            env._active_proc = None
            return


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

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

    def _collect(self) -> dict:
        return {
            i: ev._value
            for i, ev in enumerate(self._events)
            if ev._processed and ev._ok
        }

    def _check(self, index: int, event: Event) -> None:  # pragma: no cover
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when all constituent events fired; value maps index → value.

    Values are accumulated incrementally per completion (O(1) amortized),
    not by re-scanning the full event list when the last one fires —
    large fan-ins (collectives) stay O(n) overall.
    """

    __slots__ = ()

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


class AnyOf(_Condition):
    """Fires when the first constituent event fires; the value collects
    every constituent already fired at that moment."""

    __slots__ = ()

    def _check(self, index: int, event: Event) -> None:
        if self._ok is not None:
            return
        if event._ok is False:
            self.fail(event._value)
            return
        self.succeed(self._collect())
