"""Event-driven fluid simulation of long-lived bulk flows.

A fluid flow is not a packet stream: it is a remaining-byte counter
draining at the max-min fair rate the network currently grants it.
Rates are piecewise constant — they only change at *flow events*
(arrival, departure, fault/route change) — so the engine re-solves the
:func:`repro.netsim.tcp.max_min_rates` water-filling at those events and
advances time analytically in between.  A 10,000-session heavy-tailed
day on the testbed is ~20,000 events instead of tens of millions of
packets.

Four tricks keep the event loop cheap at scale:

* **Path classes** — concurrent flows between the same endpoints (and
  rate cap) face identical constraints, so they always share one rate.
  The solver runs over classes with multiplicities (exact for max-min
  fairness), not individual flows: thousands of flows solve as a
  handful of classes.
* **Drain accounting** — within a class every member drains at the same
  rate, so each flow's completion is a fixed *drain key* (cumulative
  bits the class will have served): a min-heap per class finds the next
  departure in O(log n) with no per-flow updates on re-solve.
* **Dominated resources** — a resource whose every user also crosses
  another resource at a per-bit cost at least as large can never be the
  first to bind, so the solver never sees it (see :func:`_dominated`).
  The drop set is rebuilt only when a class or static demand appears.
* **Busy list** — a class stays in ``_classes`` after its last flow
  leaves, so the per-event walks (next event, drain, harvest, re-solve,
  loads) go over ``_busy``, the non-empty classes only.  It keeps
  creation order, because that is the order the solver sums in: a class
  that empties drops out with its rate reset to 0.0, one that fills
  again is put back in its creation slot, and ``invalidate_paths``
  rebuilds the list, so every rate stays bit for bit what a walk over
  all classes gives.

The engine owns no clock of its own: :meth:`run` drives it standalone
(pure fluid, fastest), while :mod:`repro.fluid.hybrid` steps it from a
packet-level :class:`~repro.sim.Environment` via :meth:`next_event_time`
/ :meth:`advance_to` and couples the rates back into the packet world as
background load.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterable, Optional

from repro.netsim.core import Network
from repro.netsim.ip import ClassicalIP
from repro.netsim.tcp import characterize_path, max_min_rates

INF = float("inf")

#: Completion tolerance in *bits*: far below one byte, far above the
#: accumulated ulp error of a drain integral.
_DRAIN_EPS = 1e-6


def _per_bit_costs(char) -> dict[str, float]:
    """A path's resource costs in seconds per payload bit."""
    bits = char.mss * 8.0
    return {r: t / bits for r, t in char.resources.items()}


def _dominated(demands: list[dict[str, float]]) -> set[str]:
    """Resources no max-min solve over any subset of ``demands`` needs.

    ``r2`` is dominated by ``r1`` when every demand using ``r2`` also
    uses ``r1`` at a per-bit cost at least as large, both finite: its
    load and live demand never exceed ``r1``'s, so it is never the first
    to bind and dropping it changes no bit of the rates (DESIGN §2.13).
    Of identical resources the first in ``demands`` order stays."""
    users: dict[str, dict[int, float]] = {}
    for i, costs in enumerate(demands):
        for r, x in costs.items():
            users.setdefault(r, {})[i] = x
    rank = {r: k for k, r in enumerate(users)}
    drop = set()
    for r2, us2 in users.items():
        for r1 in demands[next(iter(us2))]:  # a dominator serves r2's users
            us1 = users[r1]
            if (
                r1 != r2
                and us2.keys() <= us1.keys()
                and INF not in us1.values()
                and all(0.0 <= x <= us1[i] for i, x in us2.items())
                and (rank[r1] < rank[r2] or us1 != us2)
            ):
                drop.add(r2)
                break
    return drop


@dataclass(frozen=True)
class CompletedFlow:
    """One finished fluid transfer."""

    name: str
    src: str
    dst: str
    nbytes: int
    arrived: float
    completed: float

    @property
    def fct(self) -> float:
        """Flow completion time in seconds."""
        return self.completed - self.arrived

    @property
    def mean_rate(self) -> float:
        """Mean goodput in bit/s over the flow's lifetime."""
        t = self.fct
        return self.nbytes * 8.0 / t if t > 0 else INF


@dataclass(slots=True)
class _Static:
    src: str
    dst: str
    cap: float
    costs: Optional[dict[str, float]] = None  # None while unroutable
    solve_costs: Optional[dict[str, float]] = None


@dataclass(slots=True)
class _Flow:
    name: str
    src: str
    dst: str
    nbytes: int
    arrived: float
    finish_key: float  # class drain level (bits) at which this flow ends


class _PathClass:
    """All active flows sharing one (src, dst, cap) constraint set."""

    __slots__ = (
        "key", "slot", "costs", "solve_costs", "cap", "rate", "drained", "heap", "seq"
    )

    def __init__(self, key, slot: int, costs: dict[str, float], cap: float):
        self.key = key
        self.slot = slot  # creation order: the class's place in the solve
        self.costs = costs  # resource -> seconds per payload bit
        self.solve_costs = costs  # costs minus the dominated resources
        self.cap = cap
        self.rate = 0.0  # current per-flow rate, bit/s
        self.drained = 0.0  # cumulative bits served per member
        self.heap: list[tuple[float, int, _Flow]] = []
        self.seq = 0  # FIFO tiebreak for equal finish keys

    def add(self, flow: _Flow, remaining_bits: Optional[float] = None) -> None:
        bits = flow.nbytes * 8.0 if remaining_bits is None else remaining_bits
        flow.finish_key = self.drained + bits
        heapq.heappush(self.heap, (flow.finish_key, self.seq, flow))
        self.seq += 1


class FluidEngine:
    """Piecewise-constant-rate simulation over a :class:`Network`.

    The network supplies topology and per-path resource costs (via
    :func:`~repro.netsim.tcp.characterize_path`); no packets ever touch
    it.  ``window_bytes`` imposes the TCP window cap ``W·8/RTT`` on
    every fluid flow (match it to the packet-level transfers when
    cross-validating); per-flow ``rate_cap`` models application pacing.

    ``probe`` is the telemetry seam
    (:func:`repro.telemetry.probes.instrument_fluid`): ``on_arrival``,
    ``on_complete`` and ``on_resolve`` fire at the matching events.
    ``on_rates_changed`` is the hybrid coupling hook — called after
    every re-solve with the engine as argument.
    """

    def __init__(
        self,
        net: Network,
        ip: Optional[ClassicalIP] = None,
        window_bytes: float = INF,
    ):
        if not window_bytes > 0:
            raise ValueError(f"window_bytes must be positive, got {window_bytes!r}")
        self.net = net
        self.ip = ip or ClassicalIP()
        self.window_bytes = window_bytes
        self.now = 0.0
        self.completed: list[CompletedFlow] = []
        self.resolves = 0
        self.arrived = 0
        self.probe: Optional[Any] = None
        self.on_rates_changed: Optional[Any] = None
        self._classes: dict[tuple, _PathClass] = {}
        # The non-empty classes in ``_classes`` (creation) order, which is
        # the solver's summation order: the only classes any event reads.
        self._busy: list[_PathClass] = []
        self._char_cache: dict[tuple[str, str], Any] = {}
        self._static: dict[str, _Static] = {}
        self._prune_stale = False  # the drop set predates a new demand
        self._pending: list[Any] = []  # (at, seq, name, src, dst, nbytes)
        self._pending_seq = 0
        self._active = 0
        self.peak_active = 0
        self._active_integral = 0.0
        self._util_integral: dict[str, float] = {}

    # -- flow admission ----------------------------------------------------
    def offer(self, arrivals: Iterable[Any]) -> int:
        """Queue a batch of :class:`~repro.fluid.workload.FlowArrival`
        records (any object with ``at/name/src/dst/nbytes``)."""
        n = 0
        for a in arrivals:
            self.schedule_flow(a.at, a.name, a.src, a.dst, a.nbytes)
            n += 1
        return n

    def schedule_flow(
        self, at: float, name: str, src: str, dst: str, nbytes: int
    ) -> None:
        """Queue one future arrival (``at`` must be finite and not in the
        past, ``nbytes`` positive and finite)."""
        if not self.now <= at < INF:
            raise ValueError(f"arrival at {at} is not finite or before {self.now}")
        if not 0 < nbytes < INF:
            raise ValueError(f"flow size must be positive and finite, got {nbytes}")
        heapq.heappush(
            self._pending, (at, self._pending_seq, name, src, dst, nbytes)
        )
        self._pending_seq += 1

    def add_static_demand(self, name: str, src: str, dst: str, cap: float) -> None:
        """Register a rate demand that participates in the water-filling
        but never completes — how the hybrid engine makes fluid flows
        leave room for the packet-level (latency-sensitive) traffic
        sharing their links.  ``cap`` is the demand's offered bit/s.
        Endpoints are kept so the demand re-characterizes after a
        topology change; a demand with no current route simply drops out
        of the solve until a route returns."""
        if name in self._static:
            raise ValueError(f"static demand {name!r} is already registered")
        if not cap >= 0.0:
            raise ValueError(f"static demand {name!r}: cap {cap!r} is negative or NaN")
        if self._characterize(src, dst) is None:
            raise ValueError(f"no route from {src} to {dst}")
        self._static[name] = demand = _Static(src, dst, cap)
        self._static_costs(demand)

    def _static_costs(self, demand: _Static) -> None:
        char = self._characterize(demand.src, demand.dst)
        demand.costs = None if char is None else _per_bit_costs(char)
        self._prune_stale = True

    # -- path characterization --------------------------------------------
    def _characterize(self, src: str, dst: str):
        key = (src, dst)
        if key not in self._char_cache:
            try:
                self._char_cache[key] = characterize_path(
                    self.net, src, dst, self.ip
                )
            except ValueError:
                self._char_cache[key] = None  # no route right now
        return self._char_cache[key]

    def _class_for(self, src: str, dst: str) -> _PathClass:
        char = self._characterize(src, dst)
        if char is None:
            # Unroutable (partitioned) path: a zero-cap class parks the
            # flow at rate 0 until invalidate_paths() finds a route.
            key = (src, dst, 0.0)
            cls = self._classes.get(key)
            if cls is None:
                cls = self._classes[key] = _PathClass(key, len(self._classes), {}, 0.0)
            return cls
        cap = INF
        if self.window_bytes != INF and char.rtt > 0:
            cap = self.window_bytes * 8.0 / char.rtt
        key = (src, dst, cap)
        cls = self._classes.get(key)
        if cls is None:
            costs = _per_bit_costs(char)
            cls = self._classes[key] = _PathClass(key, len(self._classes), costs, cap)
            # Seeded so that advance_to() accumulates with a plain +=.
            for r in costs:
                self._util_integral.setdefault(r, 0.0)
            self._prune_stale = True
        return cls

    def invalidate_paths(self) -> None:
        """Topology changed (fault, repair, reroute): re-characterize
        every active flow's path and re-solve.  Remaining volumes carry
        over; rates change from *now* on (piecewise-constant coupling).
        """
        carried: list[tuple[_Flow, float]] = []
        for cls in self._busy:
            for key, _, flow in cls.heap:
                carried.append((flow, max(0.0, key - cls.drained)))
        self._classes.clear()
        self._char_cache.clear()
        for flow, remaining_bits in carried:
            if remaining_bits <= _DRAIN_EPS:
                self._finish(flow, None)
            else:
                self._class_for(flow.src, flow.dst).add(flow, remaining_bits)
        self._busy = [cls for cls in self._classes.values() if cls.heap]
        for demand in self._static.values():
            self._static_costs(demand)
        self._resolve()

    # -- solving -----------------------------------------------------------
    def _prune(self) -> None:
        """Rebuild ``solve_costs`` from one drop set over every class (empty
        ones too) and routable static demand: dominance over a superset of
        demands holds for each subset, so the set serves every re-solve."""
        demands: list[Any] = list(self._classes.values())
        demands += [d for d in self._static.values() if d.costs is not None]
        drop = _dominated([d.costs for d in demands])
        for d in demands:
            d.solve_costs = {r: c for r, c in d.costs.items() if r not in drop}
        self._prune_stale = False

    def _resolve(self) -> None:
        if self._prune_stale:
            self._prune()
        # Keyed by the class object: its hash is its identity, where a
        # (src, dst, cap) tuple would be re-hashed at every lookup.
        costs: dict[Any, dict[str, float]] = {}
        caps: dict[Any, float] = {}
        counts: dict[Any, int] = {}
        for cls in self._busy:
            costs[cls] = cls.solve_costs
            caps[cls] = cls.cap
            counts[cls] = len(cls.heap)
        for name, demand in self._static.items():
            if demand.costs is not None:  # else no route now: silent
                costs[name] = demand.solve_costs
                caps[name] = demand.cap
                counts[name] = 1
        rates = max_min_rates(costs, caps, counts) if costs else {}
        for cls in self._busy:
            cls.rate = rates[cls]
        self.resolves += 1
        if self.probe is not None:
            self.probe.on_resolve(self)
        if self.on_rates_changed is not None:
            self.on_rates_changed(self)

    def resource_loads(self) -> dict[str, float]:
        """Current fluid load per resource as a capacity fraction —
        what the hybrid driver pushes into the packet world as
        background shares.  Static (packet-side) demands are excluded:
        their packets occupy the links physically already."""
        loads: dict[str, float] = {}
        for cls in self._busy:
            if cls.rate <= 0:
                continue
            total = len(cls.heap) * cls.rate
            for r, c in cls.costs.items():
                loads[r] = loads.get(r, 0.0) + total * c
        return loads

    # -- event loop --------------------------------------------------------
    @property
    def active(self) -> int:
        """Currently active (admitted, unfinished) fluid flows."""
        return self._active

    def next_event_time(self) -> float:
        """Earliest pending arrival or completion (``inf`` when idle)."""
        t = self._pending[0][0] if self._pending else INF
        now = self.now
        for cls in self._busy:
            rate = cls.rate
            if rate == INF:
                return now
            if rate > 0:
                dt = (cls.heap[0][0] - cls.drained) / rate
                done = now + dt if dt > 0.0 else now
                if done < t:
                    t = done
        return t

    def advance_to(self, t: float) -> bool:
        """Advance the fluid clock to ``t``, harvesting completions and
        admitting due arrivals; re-solves (and fires the coupling hook)
        if the active flow set changed.  Returns True on a re-solve."""
        if t < self.now:
            raise ValueError(f"cannot advance backwards to {t} from {self.now}")
        dt = t - self.now
        if dt > 0:
            util = self._util_integral
            for cls in self._busy:
                if cls.rate <= 0:
                    continue
                cls.drained += cls.rate * dt
                total = len(cls.heap) * cls.rate * dt
                for r, c in cls.costs.items():
                    util[r] += total * c
            self._active_integral += self._active * dt
            self.now = t
        changed = self._harvest()
        changed = self._admit_due() or changed
        if changed:
            self._resolve()
        return changed

    def _harvest(self) -> bool:
        changed = emptied = False
        for cls in self._busy:
            if cls.rate == INF:
                while cls.heap:
                    self._finish(heapq.heappop(cls.heap)[2], cls)
                changed = True
            else:
                # A remainder the clock cannot traverse (finishing within
                # one ulp of `now`) is done *now* — without the rate-scaled
                # term a sub-ulp residue stalls the event loop forever.
                eps = max(_DRAIN_EPS, cls.rate * self.now * 4e-16)
                limit = cls.drained + eps
                while cls.heap and cls.heap[0][0] <= limit:
                    self._finish(heapq.heappop(cls.heap)[2], cls)
                    changed = True
            if not cls.heap:
                cls.rate = 0.0
                emptied = True
        if emptied:
            self._busy = [cls for cls in self._busy if cls.heap]
        return changed

    def _finish(self, flow: _Flow, cls: Optional[_PathClass]) -> None:
        done = CompletedFlow(
            name=flow.name,
            src=flow.src,
            dst=flow.dst,
            nbytes=flow.nbytes,
            arrived=flow.arrived,
            completed=self.now,
        )
        self.completed.append(done)
        self._active -= 1
        if self.probe is not None:
            self.probe.on_complete(self, done)

    def _admit_due(self) -> bool:
        changed = False
        while self._pending and self._pending[0][0] <= self.now:
            _, _, name, src, dst, nbytes = heapq.heappop(self._pending)
            flow = _Flow(
                name=name,
                src=src,
                dst=dst,
                nbytes=nbytes,
                arrived=self.now,
                finish_key=0.0,
            )
            cls = self._class_for(src, dst)
            if not cls.heap:  # back into its creation slot
                insort(self._busy, cls, key=attrgetter("slot"))
            cls.add(flow)
            self._active += 1
            self.arrived += 1
            self.peak_active = max(self.peak_active, self._active)
            if self.probe is not None:
                self.probe.on_arrival(self, flow.name)
            changed = True
        return changed

    def run(self, until: Optional[float] = None) -> "FluidEngine":
        """Standalone drive: step event to event until nothing is
        pending (or the ``until`` horizon).  Flows stuck at rate zero on
        a partitioned path stay active; they are not events."""
        while True:
            t = self.next_event_time()
            if t == INF or (until is not None and t > until):
                break
            self.advance_to(t)
        if until is not None and until > self.now:
            self.advance_to(until)
        return self

    # -- reporting ---------------------------------------------------------
    def mean_active(self) -> float:
        """Time-averaged number of active flows so far."""
        return self._active_integral / self.now if self.now > 0 else 0.0

    def mean_utilization(self, resource: str) -> float:
        """Time-averaged occupancy of one resource key (0..1)."""
        if self.now <= 0:
            return 0.0
        return self._util_integral.get(resource, 0.0) / self.now

    def fct_stats(self) -> dict[str, float]:
        """Summary of flow completion times (empty dict when none)."""
        if not self.completed:
            return {}
        fcts = sorted(f.fct for f in self.completed)
        n = len(fcts)

        def pct(q: float) -> float:
            return fcts[min(n - 1, int(q * n))]

        # Plain left-to-right addition, the same bits on every Python:
        # from 3.12 on, the builtin sum() of floats is compensated.
        total = 0.0
        for fct in fcts:
            total += fct
        return {
            "mean": total / n,
            "p50": pct(0.50),
            "p95": pct(0.95),
            "p99": pct(0.99),
            "max": fcts[-1],
        }
