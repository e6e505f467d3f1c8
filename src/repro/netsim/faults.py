"""Deterministic fault injection for the testbed network.

The real Gigabit Testbed West ran over hardware that failed: fibre cuts,
ATM adapter lockups, workstation gateways that needed rebooting.  This
module schedules those failures against the discrete-event
:class:`~repro.sim.Environment` so recovery behaviour (TCP
retransmission, route failover, metampi transport retries) can be
exercised reproducibly.

Three fault classes:

* **link down/up windows** — :meth:`FaultInjector.link_down` takes a link
  out of service for a window; the network invalidates routes, queued
  packets are flushed, and packets on the wire are lost.
* **random wire loss** — :meth:`FaultInjector.random_loss` sets a
  per-link, per-direction loss probability.  Each afflicted direction
  gets its own child RNG whose seed is derived from the injector's seed
  plus the fault's identity (kind, link name, direction, parameters) —
  never from the order faults happen to be scheduled in — so adding,
  removing or reordering other faults leaves a loss pattern untouched.
* **gateway crash/restart** — :meth:`FaultInjector.gateway_crash` crashes
  a :class:`~repro.netsim.core.Gateway` workstation: its forwarding queue
  is flushed, arriving packets are black-holed, and its attached links go
  down so routing stops selecting paths through it.

All times are relative to the simulation clock at the moment the fault is
scheduled, and are checked there: a start or duration that is negative,
NaN or infinite raises :class:`ValueError` at the call site.  Every
state change is appended to :attr:`FaultInjector.log` as
``(time, description)`` for benchmark reports.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable, Optional, Sequence, Union

from repro.netsim.core import Gateway, Link, Network

LinkRef = Union[Link, str, "tuple[str, str]"]


def _check_window(start_name: str, start: float, duration: Optional[float]) -> None:
    """Reject a window start or duration that is negative, NaN or
    infinite (a ``None`` duration means "never ends")."""
    if not 0.0 <= start < math.inf:
        raise ValueError(f"{start_name} must be finite and >= 0: {start}")
    if duration is not None and not 0.0 <= duration < math.inf:
        raise ValueError(f"duration must be finite and >= 0 or None: {duration}")


class FaultInjector:
    """Schedules failures on a :class:`Network`, deterministically.

    ``seed`` plus each fault's identity (kind, element, direction,
    parameters) determines that fault's child seed — scheduling order
    plays no part, so adding one fault never perturbs another's
    pattern, and the same fault built in two different processes draws
    the same stream.
    """

    def __init__(self, net: Network, seed: int = 0):
        self.net = net
        self.env = net.env
        self.seed = seed
        self._fault_counts: dict[tuple, int] = {}
        self.log: list[tuple[float, str]] = []

    # -- plumbing ---------------------------------------------------------
    def _record(self, what: str) -> None:
        self.log.append((self.env.now, what))

    def _window(
        self,
        at: float,
        duration: Optional[float],
        begin: Callable[[], None],
        end: Callable[[], None],
    ) -> None:
        """Call ``begin()`` ``at`` seconds from now and ``end()``
        ``duration`` seconds after that (never, for ``None``).

        The zero-delay start entry keeps a window with ``at=0`` behind
        every entry already queued for the current instant."""
        env = self.env

        def opened() -> None:
            begin()
            if duration is not None:
                env.call_later(duration, end)

        def start() -> None:
            if at > 0:
                env.call_later(at, opened)
            else:
                opened()

        env.call_later(0.0, start)

    def _child_rng(self, *identity: object) -> random.Random:
        """A child RNG seeded from the injector seed and a fault identity.

        Two calls with the same identity get distinct streams via a
        per-identity occurrence counter (a repeated loss window on the
        same link is a new fault, not a replay); everything else about
        the seed is a pure function of ``(seed, identity)``.
        """
        key = tuple(str(part) for part in identity)
        nth = self._fault_counts.get(key, 0)
        self._fault_counts[key] = nth + 1
        material = "|".join((str(self.seed), *key, str(nth)))
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def resolve_link(self, ref: LinkRef) -> Link:
        """Accept a :class:`Link`, a registered link name, or an
        ``(a, b)`` node-name pair."""
        if isinstance(ref, Link):
            return ref
        if isinstance(ref, tuple):
            a, b = ref
            return self.net.nodes[a].link_to(b)
        if ref in self.net.links:
            return self.net.links[ref]
        raise KeyError(f"no link {ref!r} in this network")

    # -- link faults ------------------------------------------------------
    def link_down(
        self, link: LinkRef, at: float = 0.0, duration: Optional[float] = None
    ) -> Link:
        """Take ``link`` down ``at`` seconds from now; restore it after
        ``duration`` seconds (``None`` leaves it down forever)."""
        _check_window("at", at, duration)
        target = self.resolve_link(link)

        def down() -> None:
            target.set_up(False)
            self._record(f"link {target.name} down")

        def up() -> None:
            target.set_up(True)
            self._record(f"link {target.name} up")

        self._window(at, duration, down, up)
        return target

    def outage_schedule(
        self,
        links: Sequence[LinkRef],
        horizon: float,
        outages: int = 4,
        min_duration: float = 0.0,
        max_duration: Optional[float] = None,
    ) -> list[tuple[str, float, float]]:
        """Schedule ``outages`` seeded link-down windows spread over
        ``links`` within the next ``horizon`` seconds.

        Each window picks a victim link, a start time and a duration
        from a child RNG derived from the injector seed and the schedule
        identity (the sorted link names and parameters) — so the same
        schedule hits the same links at the same times regardless of
        what else is injected, and two topologies sharing those link
        names (e.g. a single ring vs. the first ring of a dual ring)
        suffer the *identical* outage history.  Windows may overlap:
        that is the double-cut case redundant topologies exist for.

        Returns the schedule as ``(link_name, at, duration)`` tuples,
        sorted by start time, for benchmark reports.
        """
        targets = [self.resolve_link(ref) for ref in links]
        if not targets:
            raise ValueError("outage_schedule needs at least one link")
        if not 0.0 < horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite: {horizon}")
        if max_duration is None:
            max_duration = horizon / 4.0
        # Check the whole duration range before scheduling any window,
        # so a bad range cannot leave a partial schedule behind.
        if not 0.0 <= min_duration <= max_duration < math.inf:
            raise ValueError(
                "durations need 0 <= min_duration <= max_duration < inf: "
                f"{min_duration}, {max_duration}"
            )
        rng = self._child_rng(
            "outage-schedule",
            ",".join(sorted(t.name for t in targets)),
            outages,
            horizon,
            min_duration,
            max_duration,
        )
        schedule = []
        for _ in range(outages):
            target = targets[rng.randrange(len(targets))]
            at = rng.uniform(0.0, horizon)
            duration = rng.uniform(min_duration, max_duration)
            self.link_down(target, at=at, duration=duration)
            schedule.append((target.name, at, duration))
        schedule.sort(key=lambda entry: (entry[1], entry[0]))
        return schedule

    def random_loss(
        self,
        link: LinkRef,
        probability: float,
        start: float = 0.0,
        duration: Optional[float] = None,
        direction: Optional[str] = None,
    ) -> Link:
        """Drop each packet on ``link`` with ``probability`` (seeded).

        ``direction`` names the sending node to afflict one direction
        only (e.g. lose data but not ACKs); default is both.  The loss
        window runs from ``start`` for ``duration`` seconds (``None`` =
        until the end of the simulation)."""
        if not 0.0 <= probability < 1.0:
            # Validate now, not when the scheduled window opens: a bad
            # rate should fail at the call site, not mid-simulation.
            raise ValueError(f"loss probability must be in [0, 1): {probability}")
        _check_window("start", start, duration)
        target = self.resolve_link(link)
        directions = (
            [direction] if direction else [target.a.name, target.b.name]
        )
        # One child per afflicted direction, each a pure function of the
        # fault's identity: the loss pattern one direction sees never
        # depends on the other direction's traffic or on what other
        # faults were scheduled before this one.
        children = {
            d: self._child_rng(
                "random_loss", target.name, d, probability, start, duration
            )
            for d in directions
        }

        def lossy() -> None:
            for d in directions:
                target.set_loss(probability, direction=d, rng=children[d])
            self._record(f"link {target.name} loss p={probability}")

        def clear() -> None:
            for d in directions:
                target.set_loss(0.0, direction=d)
            self._record(f"link {target.name} loss cleared")

        self._window(start, duration, lossy, clear)
        return target

    # -- gateway faults ---------------------------------------------------
    def gateway_crash(
        self, name: str, at: float = 0.0, duration: Optional[float] = None
    ) -> Gateway:
        """Crash gateway ``name`` ``at`` seconds from now; reboot it after
        ``duration`` seconds (``None`` = never).

        The crash flushes the gateway's forwarding queue and takes its
        attached links down, so routing (and the metampi WAN-cost cache,
        via invalidation) stops using paths through it."""
        _check_window("at", at, duration)
        gw = self.net.nodes[name]
        if not isinstance(gw, Gateway):
            raise TypeError(f"{name!r} is not a Gateway")

        def crash() -> None:
            gw.crash()
            for link in gw.links:
                link.set_up(False)
            self._record(f"gateway {name} crashed")

        def restart() -> None:
            gw.restart()
            for link in gw.links:
                link.set_up(True)
            self._record(f"gateway {name} restarted")

        self._window(at, duration, crash, restart)
        return gw
