"""The event loop of the discrete-event kernel.

The queue holds bare 4-slot lists ``[time, serial, obj, args]`` — no
wrapper object per entry.  ``args is None`` marks an
:class:`~repro.sim.events.Event` to fire; anything else is a plain
callable scheduled with :meth:`Environment.call_at` /
:meth:`Environment.call_later`, invoked as ``obj(*args)``.  Both forms
share one monotonically increasing serial, so entries scheduled for the
same simulated time fire in scheduling (FIFO) order regardless of which
form they used.  :meth:`Environment.call_at_after` is the one exception:
it slots an entry in right behind a given pending one.

Entries are *lists*, not tuples, for **in-place cancellation**: the
scheduling methods return the live entry, and model code that holds it
can neutralize the callback with :meth:`Environment.cancel` — the entry
stays in the heap and fires as a no-op at its scheduled time.  That
gives exact-cost cancellation (no heap surgery, no tombstone
bookkeeping) for pre-scheduled work a fault or contention event
invalidated.  Every schedule call builds a fresh entry and a dispatched
one is never reused, so cancelling a stale handle is harmless.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

from repro.sim import events as _ev
from repro.sim.errors import Interrupt as Interrupt  # noqa: F401  (re-export)
from repro.sim.errors import SimulationError as SimulationError

_heappush = heapq.heappush
_heappop = heapq.heappop


def _noop(*_args: Any) -> None:
    """Target of a cancelled entry (see :meth:`Environment.cancel`)."""


class Environment:
    """Simulation environment: clock plus time-ordered event queue.

    Entries scheduled at equal times fire in scheduling order (FIFO),
    which makes simulations deterministic.

    ``fast_path`` (default True) lets model code pick allocation-free
    scheduling shortcuts (inline completion, callback delivery) that are
    result-identical but reorder nothing observable; passing ``False``
    forces the event-per-hop reference path, which the determinism
    test suite uses as the oracle.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_active_proc",
        "fast_path",
    )

    def __init__(self, initial_time: float = 0.0, fast_path: bool = True):
        self._now = float(initial_time)
        self._queue: list[list] = []
        self._eid = 0
        self._active_proc: Optional[_ev.Process] = None
        self.fast_path = bool(fast_path)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional["_ev.Process"]:
        """The process currently being resumed (None outside callbacks)."""
        return self._active_proc

    @property
    def scheduled_count(self) -> int:
        """Total queue entries ever scheduled (events + callbacks).

        A deterministic proxy for kernel work done — the benchmark
        harness hard-gates on it instead of flaky wall-clock timings.
        """
        return self._eid

    @property
    def pool_allocs(self) -> int:
        """Heap entries allocated: every scheduled entry is a fresh list,
        so this equals :attr:`scheduled_count`."""
        return self._eid

    # -- scheduling ------------------------------------------------------
    def schedule(self, event: "_ev.Event", delay: float = 0.0) -> list:
        """Queue a triggered event to fire ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._eid = eid = self._eid + 1
        entry = [self._now + delay, eid, event, None]
        _heappush(self._queue, entry)
        return entry

    def call_later(self, delay: float, fn: Callable, *args: Any) -> list:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        The callback fast path: one bare heap entry, no :class:`Event`
        allocated, nothing to wait on.  Use it for fire-and-forget model
        work (packet delivery, switch forwarding); use :meth:`timeout`
        when a process must yield on the delay.  Returns the live entry
        (see :meth:`cancel`).
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._eid = eid = self._eid + 1
        entry = [self._now + delay, eid, fn, args]
        _heappush(self._queue, entry)
        return entry

    def call_at(self, when: float, fn: Callable, *args: Any) -> list:
        """Schedule ``fn(*args)`` at absolute simulation time ``when``.

        Returns the live entry (see :meth:`cancel`)."""
        if not when >= self._now:
            raise SimulationError(f"cannot schedule into the past (t={when})")
        self._eid = eid = self._eid + 1
        entry = [when, eid, fn, args]
        _heappush(self._queue, entry)
        return entry

    def call_at_after(self, when: float, entry: list, fn: Callable, *args: Any) -> list:
        """Schedule ``fn(*args)`` at ``when``, ordered among same-instant
        entries as if it had been scheduled right after the pending
        ``entry`` (its serial sits just behind ``entry``'s).

        For work that belongs with an already-queued entry but is only
        known to be needed later.  Heap keys must stay unique, so at most
        one entry may ever sit behind a given ``entry`` at the same time
        (a cancelled one still sits in the heap).  Counts in
        ``scheduled_count`` and returns the live entry (see
        :meth:`cancel`).
        """
        if not when >= self._now:
            raise SimulationError(f"cannot schedule into the past (t={when})")
        self._eid += 1
        new = [when, entry[1] + 0.5, fn, args]
        _heappush(self._queue, new)
        return new

    @staticmethod
    def cancel(entry: list) -> None:
        """Neutralize a queued entry in place: it stays in the heap and
        fires as a no-op at its scheduled time.

        Meant for entries that are still due later; cancelling one that
        has already been dispatched is harmless (entries are never
        reused), and does nothing.  ``scheduled_count`` is unaffected
        (the entry was, and still is, scheduled work).
        """
        entry[2] = _noop
        entry[3] = ()

    # -- event/process factories -----------------------------------------
    def event(self) -> "_ev.Event":
        """A fresh, untriggered event."""
        return _ev.Event(self)

    def timeout(self, delay: float, value: Any = None) -> "_ev.Timeout":
        """An event that fires ``delay`` seconds from now with ``value``."""
        return _ev.Timeout(self, delay, value)

    def process(self, generator: Generator) -> "_ev.Process":
        """Start a process running ``generator`` immediately."""
        return _ev.Process(self, generator)

    def all_of(self, evts) -> "_ev.AllOf":
        """An event that fires once every event in ``evts`` has fired."""
        return _ev.AllOf(self, list(evts))

    def any_of(self, evts) -> "_ev.AnyOf":
        """An event that fires when the first event in ``evts`` fires."""
        return _ev.AnyOf(self, list(evts))

    # -- running ----------------------------------------------------------
    def _dispatch(self, entry: list) -> None:
        self._now = entry[0]
        obj = entry[2]
        args = entry[3]
        if args is None:
            obj._fire()
        else:
            obj(*args)

    def step(self) -> None:
        """Process the next queued entry (advancing the clock to it)."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        self._dispatch(_heappop(self._queue))

    def peek(self) -> float:
        """Time of the next queued entry, or +inf if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulation time) or an :class:`Event` (run until it
        fires, returning its value; raises if the queue drains first).
        """
        queue = self._queue
        pop = _heappop

        if until is None:
            while queue:
                entry = pop(queue)
                self._now = entry[0]
                obj = entry[2]
                args = entry[3]
                if args is None:
                    obj._fire()
                else:
                    obj(*args)
            return None

        if isinstance(until, _ev.Event):
            sentinel = until
            while not sentinel._processed:
                if not queue:
                    raise SimulationError(
                        "event queue drained before the awaited event fired"
                    )
                entry = pop(queue)
                self._now = entry[0]
                obj = entry[2]
                args = entry[3]
                if args is None:
                    obj._fire()
                else:
                    obj(*args)
            if sentinel._ok is False:
                raise sentinel._value
            return sentinel._value

        horizon = float(until)
        if not horizon >= self._now:
            raise SimulationError(f"cannot run() backwards in time (until={until})")
        while queue and queue[0][0] <= horizon:
            entry = pop(queue)
            self._now = entry[0]
            obj = entry[2]
            args = entry[3]
            if args is None:
                obj._fire()
            else:
                obj(*args)
        self._now = horizon
        return None

    @property
    def queue_depth(self) -> int:
        """Entries currently pending in the event queue (telemetry)."""
        return len(self._queue)
