"""Metric instruments and the registry that owns them.

Three instrument types, all label-aware:

* :class:`Counter` — monotone accumulator (packets sent, drops by
  reason, retransmissions), either incremented or backed by a callback
  that reads a tally the simulator keeps itself.
* :class:`Gauge` — point-in-time value, either set explicitly or backed
  by a callback evaluated lazily at read time (link utilization, queue
  depth).  Callback series cost *nothing* on the simulation hot path:
  the underlying state is only read when a sampler or exporter asks.
* :class:`Histogram` — log-binned distribution (per-stage latencies).
  Bins are powers of two of the observed value, so forty-five bins
  cover nanoseconds to hours with bounded memory and no a-priori range
  configuration.

A series is identified by ``(name, labels)``; the registry deduplicates,
so ``registry.counter("x", link="wan")`` returns the same object every
call.  :meth:`MetricsRegistry.bind_counters` backs a counter family with
a tally dict: a series per key, created at the first read after the key
appears.  :class:`NullRegistry` is the zero-overhead default: it satisfies
the same interface but hands out shared no-op instruments and reports
``enabled = False``, which the installers in
:mod:`repro.telemetry.probes` use to skip registering anything — an
uninstrumented simulation runs byte-for-byte identically.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, Iterable, Optional

LabelKey = "tuple[tuple[str, str], ...]"


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Scalar:
    """A value that is either kept here or read from a callback."""

    __slots__ = ("name", "labels", "_value", "_fn")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set_function(self, fn: Callable[[], float]) -> None:
        """Back the series with ``fn`` — evaluated lazily at each read,
        so the instrumented object pays nothing until someone looks.  A
        counter's ``fn`` reads a monotone tally and returns a float."""
        self._fn = fn

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}{self.labels} = {self.value})"


class Counter(_Scalar):
    """A monotonically increasing accumulator, explicit or
    callback-backed."""

    __slots__ = ()

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must not be negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount


class Gauge(_Scalar):
    """A point-in-time value, explicit or callback-backed."""

    __slots__ = ()

    kind = "gauge"

    def set(self, value: float) -> None:
        """Set the gauge to an explicit value (clears any callback)."""
        self._fn = None
        self._value = float(value)


class Histogram:
    """A log-binned (base-2) distribution with exact count/sum/min/max.

    ``observe(v)`` files ``v`` under bin ``ceil(log2(v))``; quantiles are
    answered from the bin table with the bin's upper edge, so they are
    conservative (never under-report) and at most 2x the true value —
    fine for latency SLO-style questions.
    """

    __slots__ = ("name", "labels", "count", "sum", "min", "max", "bins")

    kind = "histogram"

    #: values at or below this go into the underflow bin (exponent None)
    UNDERFLOW = 0.0

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.bins: dict[Optional[int], int] = {}

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= self.UNDERFLOW:
            exp: Optional[int] = None
        else:
            # frexp: value = m * 2**e with 0.5 <= m < 1, so 2**(e-1) <= v < 2**e
            # except exact powers of two, which land on their own edge.
            m, e = math.frexp(value)
            exp = e - 1 if m == 0.5 else e
        self.bins[exp] = self.bins.get(exp, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (0..1) from the bin table."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        rank = q * self.count
        seen = 0
        numbered = sorted(k for k in self.bins if k is not None)
        if None in self.bins:
            seen += self.bins[None]
            if seen >= rank:
                return min(self.UNDERFLOW, self.min)
        for exp in numbered:
            seen += self.bins[exp]
            if seen >= rank:
                # Upper edge of the bin, clamped to the true extremes.
                return max(self.min, min(self.max, math.ldexp(1.0, exp)))
        return self.max  # pragma: no cover - rank <= count always lands

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram({self.name}{self.labels} n={self.count} "
            f"mean={self.mean:.3g})"
        )


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _tally_sum(tally: dict, keys: list) -> float:
    return float(sum(map(tally.__getitem__, keys)))


class MetricsRegistry:
    """Owns every metric series of one simulation run.

    Series are created on first touch and deduplicated by
    ``(name, labels)``.  Registering the same name with a different
    instrument type is a programming error and raises.
    """

    enabled = True

    def __init__(self):
        self._series: dict[tuple, object] = {}
        self._types: dict[str, str] = {}
        # [tally, series_of, keys seen, {counter: [tally keys]}] per
        # bound family
        self._families: list[list] = []

    # -- instrument factories ---------------------------------------------
    def _get(self, cls, name: str, labels: dict):
        known = self._types.get(name)
        if known is not None and known != cls.kind:
            raise ValueError(
                f"metric {name!r} already registered as a {known}, "
                f"not a {cls.kind}"
            )
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = cls(name, dict(labels))
            self._series[key] = series
            self._types[name] = cls.kind
        return series

    def counter(self, name: str, **labels) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``."""
        return self._get(Histogram, name, labels)

    def bind_counters(
        self,
        tally: dict,
        series_of: Callable[[Any], Iterable[tuple[str, dict]]],
    ) -> None:
        """Back counters with ``tally``, an insert-only ``{key: count}``
        dict the instrumented object keeps.

        Each key feeds the counters ``series_of(key)`` names as
        ``(name, labels)`` pairs; a counter fed by several keys reads
        their sum.  A key's series appear at the first :meth:`sync` after
        the key does — every read (:meth:`snapshot`, :meth:`get`,
        :meth:`series`, a sampler tick) syncs first.
        """
        self._families.append([tally, series_of, 0, {}])

    def sync(self) -> None:
        """Create the series of tally keys that appeared since the last
        read (one length check per bound tally)."""
        for family in self._families:
            if len(family[0]) != family[2]:
                tally, series_of, seen, keys_of = family
                for key in list(tally)[seen:]:
                    for name, labels in series_of(key):
                        counter = self.counter(name, **labels)
                        keys = keys_of.get(counter)
                        if keys is None:
                            keys = keys_of[counter] = []
                            counter.set_function(partial(_tally_sum, tally, keys))
                        keys.append(key)
                family[2] = len(tally)

    # -- introspection ------------------------------------------------------
    def series(self, kind: Optional[str] = None) -> Iterable:
        """All registered series, optionally filtered by instrument kind."""
        self.sync()
        for s in self._series.values():
            if kind is None or s.kind == kind:
                yield s

    def get(self, name: str, **labels):
        """Look up an existing series, or ``None`` if never touched."""
        self.sync()
        return self._series.get((name, _label_key(labels)))

    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge series (0.0 if absent)."""
        series = self.get(name, **labels)
        if series is None:
            return 0.0
        return series.value

    def total(self, name: str) -> float:
        """Sum of a counter family's value across all label sets."""
        return sum(
            s.value for s in self.series("counter") if s.name == name
        )

    def snapshot(self, now: Optional[float] = None) -> list[dict]:
        """All series as plain dicts (the exporters' input format)."""
        self.sync()
        rows = []
        for s in self._series.values():
            row: dict = {"kind": s.kind, "name": s.name, "labels": s.labels}
            if now is not None:
                row["t"] = now
            if s.kind == "histogram":
                row.update(
                    count=s.count,
                    sum=s.sum,
                    min=s.min if s.count else None,
                    max=s.max if s.count else None,
                    mean=s.mean,
                    p50=s.quantile(0.5),
                    p90=s.quantile(0.9),
                    p99=s.quantile(0.99),
                )
            else:
                row["value"] = s.value
            rows.append(row)
        return rows

    def __len__(self) -> int:
        return len(self._series)


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set_function(self, fn: Callable[[], float]) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def set_function(self, fn: Callable[[], float]) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The do-nothing registry: the default for uninstrumented runs.

    Every factory returns a shared no-op instrument; ``enabled`` is
    ``False`` so the installers skip registering anything.
    """

    enabled = False

    def __init__(self):
        super().__init__()
        self._null = {
            "counter": _NullCounter("null", {}),
            "gauge": _NullGauge("null", {}),
            "histogram": _NullHistogram("null", {}),
        }

    def _get(self, cls, name: str, labels: dict):
        return self._null[cls.kind]

    def snapshot(self, now: Optional[float] = None) -> list[dict]:
        return []

    def __len__(self) -> int:
        return 0
