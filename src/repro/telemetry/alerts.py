"""Threshold watchers that fire callbacks inside the simulation.

An :class:`Alert` wraps a predicate over live simulation state (usually
closures over :mod:`repro.telemetry.metrics` instruments or netsim
objects).  The :class:`AlertManager` evaluates every alert whenever it
is ticked — normally by registering :meth:`AlertManager.evaluate` as a
:class:`~repro.telemetry.timeseries.Sampler` listener, so rules run on
the sampling cadence of the simulated clock.

Alerts have Prometheus-style hysteresis:

* ``sustain`` — the predicate must hold continuously (across ticks) for
  this many simulated seconds before the alert fires, so transient
  blips (one queue spike) do not page;
* ``resolve_after`` — once firing, the predicate must stay false this
  long before the alert resolves.

Every transition is appended to :attr:`AlertManager.events` as an
:class:`AlertEvent`, which composes with
:attr:`repro.netsim.faults.FaultInjector.log`: a test can interleave the
two records and assert *fault injected → alert raised → recovery
observed* end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim import Environment
from repro.telemetry.metrics import Counter

#: predicate signature: ``fn(now) -> bool`` (truthy = condition breached)
Predicate = Callable[[float], bool]


@dataclass(frozen=True)
class AlertEvent:
    """One state transition of one alert."""

    time: float
    alert: str
    kind: str  #: "fired" or "resolved"


class Alert:
    """One watched condition with sustain/resolve hysteresis."""

    def __init__(
        self,
        name: str,
        predicate: Predicate,
        sustain: float = 0.0,
        resolve_after: float = 0.0,
        on_fire: Optional[Callable[["Alert", float], None]] = None,
        on_resolve: Optional[Callable[["Alert", float], None]] = None,
    ):
        self.name = name
        self.predicate = predicate
        self.sustain = sustain
        self.resolve_after = resolve_after
        self.on_fire = on_fire
        self.on_resolve = on_resolve
        self.state = "ok"  #: "ok" | "pending" | "firing"
        self.fired_count = 0
        self.fired_at: Optional[float] = None
        self.resolved_at: Optional[float] = None
        self._breach_since: Optional[float] = None
        self._clear_since: Optional[float] = None

    @property
    def firing(self) -> bool:
        return self.state == "firing"

    def evaluate(self, now: float, events: list[AlertEvent]) -> None:
        """Advance the state machine by one tick at simulated ``now``."""
        breached = bool(self.predicate(now))
        if self.state in ("ok", "pending"):
            if not breached:
                self.state = "ok"
                self._breach_since = None
                return
            if self._breach_since is None:
                self._breach_since = now
            self.state = "pending"
            if now - self._breach_since >= self.sustain:
                self.state = "firing"
                self.fired_count += 1
                self.fired_at = now
                self._clear_since = None
                events.append(AlertEvent(now, self.name, "fired"))
                if self.on_fire is not None:
                    self.on_fire(self, now)
        elif self.state == "firing":
            if breached:
                self._clear_since = None
                return
            if self._clear_since is None:
                self._clear_since = now
            if now - self._clear_since >= self.resolve_after:
                self.state = "ok"
                self.resolved_at = now
                self._breach_since = None
                events.append(AlertEvent(now, self.name, "resolved"))
                if self.on_resolve is not None:
                    self.on_resolve(self, now)


class AlertManager:
    """Owns a rule set and its transition history."""

    def __init__(self, env: Environment):
        self.env = env
        self.alerts: list[Alert] = []
        self.events: list[AlertEvent] = []

    def watch(
        self,
        name: str,
        predicate: Predicate,
        sustain: float = 0.0,
        resolve_after: float = 0.0,
        on_fire: Optional[Callable[[Alert, float], None]] = None,
        on_resolve: Optional[Callable[[Alert, float], None]] = None,
    ) -> Alert:
        """Register a rule; returns the :class:`Alert` for inspection."""
        alert = Alert(name, predicate, sustain, resolve_after, on_fire, on_resolve)
        self.alerts.append(alert)
        return alert

    def evaluate(self, now: Optional[float] = None) -> None:
        """Evaluate every rule (a :class:`Sampler` tick listener)."""
        t = self.env.now if now is None else now
        for alert in self.alerts:
            alert.evaluate(t, self.events)

    @property
    def firing(self) -> list[str]:
        """Names of the alerts currently in the firing state."""
        return [a.name for a in self.alerts if a.firing]

    def history(self, name: Optional[str] = None) -> list[AlertEvent]:
        """Transition events, optionally for one alert only."""
        if name is None:
            return list(self.events)
        return [e for e in self.events if e.alert == name]


# -- prebuilt predicates ----------------------------------------------------

def link_down(link) -> Predicate:
    """Breached while ``link`` is administratively/fault-injected down."""
    return lambda now: not link.up


def counter_rate_above(counter: Counter, threshold: float) -> Predicate:
    """Breached while ``counter`` grows faster than ``threshold``/second,
    measured between consecutive evaluations (retransmit-rate spikes,
    drop storms)."""
    state = {"t": None, "v": None}

    def pred(now: float) -> bool:
        v = counter.value
        prev_t, prev_v = state["t"], state["v"]
        state["t"], state["v"] = now, v
        if prev_t is None or now <= prev_t:
            return False
        return (v - prev_v) / (now - prev_t) > threshold

    return pred


def counter_nonzero(counter: Counter) -> Predicate:
    """Breached once ``counter`` has counted anything at all."""
    return lambda now: counter.value > 0
