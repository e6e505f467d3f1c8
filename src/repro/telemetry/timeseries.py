"""Sim-clock-driven sampling of registry series into ring buffers.

The :class:`Sampler` is a self-rescheduling callback on the simulation
:class:`~repro.sim.Environment`: every ``interval`` simulated seconds it
snapshots each counter and gauge in the registry into a bounded
:class:`RingBuffer`, then notifies its tick listeners (the
:class:`~repro.telemetry.alerts.AlertManager` registers itself here, so
alert rules are evaluated on the same cadence the testbed staff polled
their monitors).

The sampler keeps rescheduling itself for as long as it runs, which
would keep an otherwise-drained event queue alive: simulations that use
``env.run()`` with no horizon should :meth:`Sampler.stop` it first (runs
bounded by ``until=time`` or ``until=event`` — every flow's ``run()``
helper — need no special care).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.sim import Environment
from repro.telemetry.metrics import MetricsRegistry, _label_key


class RingBuffer:
    """A bounded series of ``(time, value)`` samples (oldest evicted)."""

    __slots__ = ("capacity", "_data")

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("ring buffer capacity must be >= 1")
        self.capacity = capacity
        self._data: deque[tuple[float, float]] = deque(maxlen=capacity)

    def append(self, t: float, value: float) -> None:
        self._data.append((t, value))

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self):
        return iter(self._data)

    @property
    def last(self) -> Optional[tuple[float, float]]:
        """Most recent ``(time, value)`` sample, or ``None`` if empty."""
        return self._data[-1] if self._data else None

    def times(self) -> list[float]:
        return [t for t, _ in self]

    def values(self) -> list[float]:
        return [v for _, v in self]


class Sampler:
    """Periodic snapshotter of counters and gauges.

    ``interval`` is simulated seconds.  Buffers appear lazily as series
    are first seen, so series created mid-run are picked up from their
    first tick onwards.
    """

    def __init__(
        self,
        env: Environment,
        registry: MetricsRegistry,
        interval: float = 0.1,
        capacity: int = 1024,
    ):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.env = env
        self.registry = registry
        self.interval = interval
        self.capacity = capacity
        self.samples_taken = 0
        self._buffers: dict[tuple, RingBuffer] = {}
        # Per-tick fast path: a flat (append, series) pair list, rebuilt
        # only when the registry grows, so a tick is one list walk —
        # no generator, no per-series dict probe, and the sorted label
        # key is computed once per series, not once per sample.  The
        # tick reads ``_fn``/``_value`` directly instead of paying the
        # ``value`` property dispatch on every sample (``_fn`` is re-read
        # each tick, so ``set()`` after ``set_function()`` behaves
        # exactly as a property read would).
        self._pairs: list[tuple] = []
        self._seen_series = -1
        self._listeners: list[Callable[[float], None]] = []
        self._next: Optional[list] = None  # pending tick entry while running

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Sampler":
        """Begin sampling now (idempotent); returns self for chaining."""
        if self._next is None:
            # Allocate buffers for everything registered so far up front:
            # buffer creation and label keying are setup cost, not
            # something the first tick should pay mid-run.
            self.registry.sync()
            if len(self.registry) != self._seen_series:
                self._rescan()
            self._next = self.env.call_later(0.0, self._tick)
        return self

    def stop(self) -> None:
        """Stop sampling (idempotent): the pending tick is cancelled, so
        a later :meth:`start` runs the only sampling loop."""
        if self._next is not None:
            self.env.cancel(self._next)
            self._next = None

    def _tick(self) -> None:
        entry = self._next
        self.sample_once()
        # A listener may have stopped (or restarted) the sampler.
        if self._next is entry:
            self._next = self.env.call_later(self.interval, self._tick)

    # -- sampling ----------------------------------------------------------
    def add_listener(self, fn: Callable[[float], None]) -> None:
        """Call ``fn(now)`` after every tick (alert evaluation hook)."""
        self._listeners.append(fn)

    def _rescan(self) -> None:
        """Pick up series created since the last tick (lazy buffers)."""
        pairs = []
        for series in self.registry.series():
            if series.kind == "histogram":
                continue  # distributions are exported whole, not sampled
            key = (series.name, _label_key(series.labels))
            buf = self._buffers.get(key)
            if buf is None:
                buf = self._buffers[key] = RingBuffer(self.capacity)
            # Bind the deque's append once per series, not once per tick.
            pairs.append((buf._data.append, series))
        self._pairs = pairs
        self._seen_series = len(self.registry)

    def sample_once(self) -> float:
        """Take one snapshot immediately; returns the sample time."""
        now = self.env.now
        registry = self.registry
        registry.sync()
        if len(registry) != self._seen_series:
            self._rescan()
        for append, series in self._pairs:
            fn = series._fn
            append((now, fn() if fn is not None else series._value))
        self.samples_taken += 1
        for fn in self._listeners:
            fn(now)
        return now

    # -- access ------------------------------------------------------------
    def buffer(self, name: str, **labels) -> Optional[RingBuffer]:
        """The ring buffer of one series, or ``None`` if never sampled."""
        return self._buffers.get((name, _label_key(labels)))

    def buffers(self) -> dict[tuple, RingBuffer]:
        """All buffers keyed by ``(name, label_key)``."""
        return dict(self._buffers)
