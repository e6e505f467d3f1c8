"""The event loop of the discrete-event kernel.

The queue holds bare 4-slot lists ``[time, serial, obj, args]`` — no
wrapper object per entry.  ``args is None`` marks an
:class:`~repro.sim.events.Event` to fire; anything else is a plain
callable scheduled with :meth:`Environment.call_at` /
:meth:`Environment.call_later`, invoked as ``obj(*args)``.  Both forms
share one monotonically increasing serial, so entries scheduled for the
same simulated time fire in scheduling (FIFO) order regardless of which
form they used.

Entries are *lists*, not tuples, for two reasons:

* **Arena reuse.**  Dispatched entries return to a bounded free list and
  are refilled in place on the next schedule, so a steady-state run
  allocates almost no per-event objects (``pool_allocs`` counts the ones
  that were).  Less allocator churn also means fewer generation-0 GC
  passes in 10k+ flow runs.
* **In-place cancellation.**  The scheduling methods return the live
  entry; model code that holds it can neutralize the callback with
  :meth:`Environment.cancel` — the entry stays in the heap and fires as
  a no-op at its scheduled time.  That gives exact-cost cancellation
  (no heap surgery, no tombstone bookkeeping) for pre-scheduled work a
  fault or contention event invalidated.  Only entries whose time is
  still in the future may be cancelled: once dispatched, an entry is
  recycled and may already describe someone else's callback.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

from repro.sim import events as _ev
from repro.sim.errors import Interrupt as Interrupt  # noqa: F401  (re-export)
from repro.sim.errors import SimulationError as SimulationError

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Free-list bound: enough to cover the peak queue depth of large runs,
#: small enough that an idle environment pins only a few KB.
_POOL_MAX = 4096


def _noop(*_args: Any) -> None:
    """Target of a cancelled entry (see :meth:`Environment.cancel`)."""


class Environment:
    """Simulation environment: clock plus time-ordered event queue.

    Entries scheduled at equal times fire in scheduling order (FIFO),
    which makes simulations deterministic.

    ``fast_path`` (default True) lets model code pick allocation-free
    scheduling shortcuts (inline completion, callback delivery) that are
    result-identical but reorder nothing observable; passing ``False``
    forces the classic event-per-hop slow path, which the determinism
    test suite uses as the reference.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_active_proc",
        "fast_path",
        "_pool",
        "pool_allocs",
    )

    def __init__(self, initial_time: float = 0.0, fast_path: bool = True):
        self._now = float(initial_time)
        self._queue: list[list] = []
        self._eid = 0
        self._active_proc: Optional[_ev.Process] = None
        self.fast_path = bool(fast_path)
        #: recycled heap-entry arena (see module docstring)
        self._pool: list[list] = []
        #: entries that had to be allocated because the arena was empty;
        #: ``scheduled_count - pool_allocs`` is the number of reuses
        self.pool_allocs = 0

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

    # -- scheduling ------------------------------------------------------
    def schedule(self, event: "_ev.Event", delay: float = 0.0) -> list:
        """Queue a triggered event to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._eid = eid = self._eid + 1
        pool = self._pool
        if pool:
            entry = pool.pop()
            entry[0] = self._now + delay
            entry[1] = eid
            entry[2] = event
            entry[3] = None
        else:
            entry = [self._now + delay, eid, event, None]
            self.pool_allocs += 1
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
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._eid = eid = self._eid + 1
        pool = self._pool
        if pool:
            entry = pool.pop()
            entry[0] = self._now + delay
            entry[1] = eid
            entry[2] = fn
            entry[3] = args
        else:
            entry = [self._now + delay, eid, fn, args]
            self.pool_allocs += 1
        _heappush(self._queue, entry)
        return entry

    def call_at(self, when: float, fn: Callable, *args: Any) -> list:
        """Schedule ``fn(*args)`` at absolute simulation time ``when``.

        Returns the live entry (see :meth:`cancel`)."""
        if when < self._now:
            raise SimulationError(f"cannot schedule into the past (t={when})")
        self._eid = eid = self._eid + 1
        pool = self._pool
        if pool:
            entry = pool.pop()
            entry[0] = when
            entry[1] = eid
            entry[2] = fn
            entry[3] = args
        else:
            entry = [when, eid, fn, args]
            self.pool_allocs += 1
        _heappush(self._queue, entry)
        return entry

    @staticmethod
    def cancel(entry: list) -> None:
        """Neutralize a queued entry in place: it stays in the heap and
        fires as a no-op at its scheduled time.

        Valid only while the entry's time is in the future — a dispatched
        entry has been recycled into the arena and may already carry an
        unrelated callback.  ``scheduled_count`` is unaffected (the
        entry was, and still is, scheduled work).
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
        entry[2] = entry[3] = None
        if len(self._pool) < _POOL_MAX:
            self._pool.append(entry)
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
        pool = self._pool
        pop = _heappop

        if until is None:
            while queue:
                entry = pop(queue)
                self._now = entry[0]
                obj = entry[2]
                args = entry[3]
                entry[2] = entry[3] = None
                if len(pool) < _POOL_MAX:
                    pool.append(entry)
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
                entry[2] = entry[3] = None
                if len(pool) < _POOL_MAX:
                    pool.append(entry)
                if args is None:
                    obj._fire()
                else:
                    obj(*args)
            if sentinel._ok is False:
                raise sentinel._value
            return sentinel._value

        horizon = float(until)
        if horizon < self._now:
            raise SimulationError("cannot run() backwards in time")
        while queue and queue[0][0] <= horizon:
            entry = pop(queue)
            self._now = entry[0]
            obj = entry[2]
            args = entry[3]
            entry[2] = entry[3] = None
            if len(pool) < _POOL_MAX:
                pool.append(entry)
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
