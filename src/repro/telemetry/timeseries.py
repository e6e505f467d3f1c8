"""Sim-clock-driven sampling of registry series into rows.

The :class:`Sampler` is a self-rescheduling callback on the simulation
:class:`~repro.sim.Environment`: every ``interval`` simulated seconds it
appends one row, the tick time and the value of each counter and gauge
in the registry, to a bounded deque of the last ``capacity`` rows, then
notifies its tick listeners (the
:class:`~repro.telemetry.alerts.AlertManager` registers itself here, so
alert rules are evaluated on the same cadence the testbed staff polled
their monitors).

A row's values are in first-seen series order, so a series created
mid-run is a new last column: rows from before its first tick are
shorter.  Once seen, a series is sampled on every tick, so the rows
kept hold exactly its last ``capacity`` samples.

The sampler keeps rescheduling itself for as long as it runs, which
would keep an otherwise-drained event queue alive: simulations that use
``env.run()`` with no horizon should :meth:`Sampler.stop` it first (runs
bounded by ``until=time`` or ``until=event`` — every flow's ``run()``
helper — need no special care).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Optional

from repro.sim import Environment
from repro.telemetry.metrics import MetricsRegistry, _label_key


class Sampler:
    """Periodic snapshotter of counters and gauges.

    ``interval`` is simulated seconds; ``capacity`` is the number of
    ticks kept.  Series created mid-run are picked up from their first
    tick onwards.
    """

    def __init__(
        self,
        env: Environment,
        registry: MetricsRegistry,
        interval: float = 0.1,
        capacity: int = 1024,
    ):
        if not 0 < interval < math.inf:
            raise ValueError(f"sampling interval must be finite and > 0: {interval!r}")
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError(f"sampler capacity must be an integer >= 1: {capacity!r}")
        self.env = env
        self.registry = registry
        self.interval = interval
        self.capacity = capacity
        self.samples_taken = 0
        # The sampled (non-histogram) series in first-seen order, each
        # one's column in a row, and the rows: ``(t, values)``.  A tick
        # reads ``_fn``/``_value`` directly instead of paying the
        # ``value`` property dispatch on every sample (``_fn`` is re-read
        # each tick, so ``set()`` after ``set_function()`` behaves
        # exactly as a property read would).
        self._series: list = []
        self._column: dict[tuple, int] = {}
        self._rows: deque[tuple[float, list]] = deque(maxlen=capacity)
        self._seen_series = 0
        self._listeners: list[Callable[[float], None]] = []
        self._next: Optional[list] = None  # pending tick entry while running

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Sampler":
        """Begin sampling now (idempotent); returns self for chaining."""
        if self._next is None:
            # Take up everything registered so far: label keying is
            # setup cost, not something the first tick should pay mid-run.
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
        """Add a column for each series created since the last scan."""
        registry = self.registry
        registry.sync()
        if len(registry) == self._seen_series:
            return
        for series in registry.series():
            if series.kind == "histogram":
                continue  # distributions are exported whole, not sampled
            key = (series.name, _label_key(series.labels))
            if key not in self._column:
                self._column[key] = len(self._series)
                self._series.append(series)
        self._seen_series = len(registry)

    def sample_once(self) -> float:
        """Take one snapshot immediately; returns the sample time."""
        now = self.env.now
        self._rescan()
        row = [fn() if (fn := s._fn) is not None else s._value for s in self._series]
        self._rows.append((now, row))
        self.samples_taken += 1
        for listener in self._listeners:
            listener(now)
        return now

    # -- access ------------------------------------------------------------
    def _samples(self, column: int) -> list[tuple[float, float]]:
        # Rows from before the series' first tick are shorter.
        return [(t, vals[column]) for t, vals in self._rows if len(vals) > column]

    def buffer(self, name: str, **labels) -> Optional[list[tuple[float, float]]]:
        """One series' kept ``(time, value)`` samples, oldest first, or
        ``None`` if it was never sampled."""
        column = self._column.get((name, _label_key(labels)))
        return None if column is None else self._samples(column)

    def buffers(self) -> dict[tuple, list[tuple[float, float]]]:
        """Every series' samples keyed by ``(name, label_key)``, in
        first-seen order."""
        return {key: self._samples(c) for key, c in self._column.items()}
