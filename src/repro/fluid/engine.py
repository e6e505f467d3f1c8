"""Event-driven fluid simulation of long-lived bulk flows.

A fluid flow is not a packet stream: it is a remaining-byte counter
draining at the max-min fair rate the network currently grants it.
Rates are piecewise constant — they only change at *flow events*
(arrival, departure, fault/route change) — so the engine re-solves the
max-min water-filling (:func:`repro.netsim.tcp.water_fill`, the fill
behind :func:`~repro.netsim.tcp.max_min_rates`) at those events and
advances time analytically in between.  A 10,000-session heavy-tailed
day on the testbed is ~20,000 events instead of tens of millions of
packets.

Six tricks keep the event loop cheap at scale:

* **Path classes** — concurrent flows between the same endpoints face
  identical constraints (the window cap is fixed for a pair until
  ``invalidate_paths``), so they always share one rate.  The solver runs
  over classes with multiplicities (exact for max-min fairness), not
  individual flows: thousands of flows solve as a handful of classes.
  A pair's path is characterized once, when its class is created.
* **Drain accounting** — within a class every member drains at the same
  rate, so each flow's completion is a fixed *drain key* (cumulative
  bits the class will have served): a min-heap per class finds the next
  departure in O(log n) with no per-flow updates on re-solve.
* **Dominated resources** — a resource whose every user also crosses
  another resource at a per-bit cost at least as large can never be the
  first to bind, so the solver never sees it (see :func:`_dominated`).
  The drop set is rebuilt only with the whole index (below).
* **Busy list** — a class stays in ``_classes`` after its last flow
  leaves, so the per-event walks (next event, drain, harvest, re-solve,
  loads) go over ``_busy``, the non-empty classes only.  It is kept in
  slot (creation) order, the order the solver sums in, so every rate
  stays bit for bit what a walk over all classes gives; a class that
  empties has its rate reset to 0.0 and leaves the list.
* **Single-read walks** — each per-event walk reads a class's rate and
  heap, and the clock, once into locals; the drain and
  :meth:`~FluidEngine.resource_loads` walk the tuple of cost items each
  class keeps, not a fresh ``costs.items()`` view.
* **Kept index** — a class's costs and cap are checked once, when the
  class is created, and the solver's index is kept across re-solves.
  Its positions are stable: each class sits at its creation slot in
  ``_classes``, the routable static demands after every class, and each
  position's cap, freeze limit, costs and count are kept.  Each
  resource's users list only the busy classes and the static demands,
  in position order.  A class going busy inserts its entries (and
  itself into the busy list) by slot; one going idle removes them after
  the harvest walk.  Only a new class, a static demand's change or a
  topology change drops the index, and the next re-solve rebuilds the
  drop set, the slots, the busy list and the index together; every
  re-solve refreshes the busy classes' counts and fills only the
  positions in play.

The engine owns no clock of its own: :meth:`run` drives it standalone
(pure fluid, fastest), while :mod:`repro.fluid.hybrid` steps it from a
packet-level :class:`~repro.sim.Environment` via :meth:`next_event_time`
/ :meth:`advance_to` and couples the rates back into the packet world as
background load.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Iterable, Optional

from repro.netsim.core import Host, Network
from repro.netsim.ip import ClassicalIP
from repro.netsim.tcp import characterize_path, check_demand

# The fill, under the name perfbench's tracer wraps (ROADMAP item 7.1 ends this).
from repro.netsim.tcp import water_fill as max_min_rates

INF = float("inf")

#: Completion tolerance in *bits*: far below one byte, far above the
#: accumulated ulp error of a drain integral.
_DRAIN_EPS = 1e-6

_slot = attrgetter("slot")


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
    limit: float = 0.0  # the fill's freeze limit for ``cap``


@dataclass(slots=True)
class _Flow:
    name: str
    src: str
    dst: str
    nbytes: int
    arrived: float
    finish_key: float  # class drain level (bits) at which this flow ends


class _PathClass:
    """All active flows between one (src, dst) pair of endpoints."""

    __slots__ = (
        "key", "costs", "cost_items", "solve_costs", "cap", "limit", "rate",
        "drained", "heap", "seq", "slot",
    )

    def __init__(self, key, costs: dict[str, float], cap: float):
        self.limit = check_demand(key, costs, cap)  # the fill's freeze limit
        self.key = key
        self.costs = costs  # resource -> seconds per payload bit
        self.cost_items = tuple(costs.items())  # what the drain loop walks
        self.solve_costs = costs  # costs minus the dominated resources
        self.cap = cap
        self.rate = 0.0  # current per-flow rate, bit/s
        self.drained = 0.0  # cumulative bits served per member
        self.heap: list[tuple[float, int, _Flow]] = []
        self.seq = 0  # FIFO tiebreak for equal finish keys
        self.slot = 0  # creation slot: the solver position (set by the index)

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
    cross-validating).

    ``arrived``, ``completed``, ``resolves`` and ``active`` are the
    engine's own tallies, which telemetry reads
    (:func:`repro.telemetry.probes.instrument_fluid`).  ``on_complete``,
    if set, is called with each :class:`CompletedFlow`;
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
        self.on_complete: Optional[Callable[[CompletedFlow], None]] = None
        self.on_rates_changed: Optional[Any] = None
        self._classes: dict[tuple[str, str], _PathClass] = {}
        # The non-empty classes in slot (creation) order, which is the
        # solver's summation order: the only classes any event reads.
        # Kept with the index, so stale while ``_index`` is None.
        self._busy: list[_PathClass] = []
        # The fill's index over every class, then the routable static
        # demands (see _build_index); None while a class, a static demand
        # or the topology has changed.
        self._index: Optional[tuple] = None
        self._static: dict[str, _Static] = {}
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
        demand = _Static(src, dst, cap)
        self._static_costs(name, demand)
        if demand.costs is None:
            raise ValueError(f"no route from {src} to {dst}")
        self._static[name] = demand

    def _static_costs(self, name: str, demand: _Static) -> None:
        char = self._characterize(demand.src, demand.dst)
        if char is None:
            demand.costs = None
        else:
            costs = char.per_bit_costs()
            demand.limit = check_demand(name, costs, demand.cap)
            demand.costs = costs
        self._index = None

    # -- path characterization --------------------------------------------
    def _characterize(self, src: str, dst: str):
        """The path's characterization, or None while it has no route.

        Raises :class:`ValueError` for an endpoint that is not a host of
        the network or for ``src == dst``: no repair can route those, so
        parking them would leave their flows active forever."""
        for name in (src, dst):
            if not isinstance(self.net.nodes.get(name), Host):
                raise ValueError(f"fluid endpoint {name!r} is not a host")
        if src == dst:
            raise ValueError(f"fluid path from {src!r} to itself")
        try:
            return characterize_path(self.net, src, dst, self.ip)
        except ValueError:
            return None  # no route right now

    def _class_for(self, src: str, dst: str) -> _PathClass:
        key = (src, dst)
        cls = self._classes.get(key)
        if cls is not None:
            return cls
        char = self._characterize(src, dst)
        if char is None:
            # Unroutable (partitioned) path: a zero-cap class parks the
            # flow at rate 0 until invalidate_paths() finds a route.
            cls = _PathClass(key, {}, 0.0)
        else:
            cap = INF
            if self.window_bytes != INF and char.rtt > 0:
                cap = self.window_bytes * 8.0 / char.rtt
            cls = _PathClass(key, char.per_bit_costs(), cap)
            # Seeded so that advance_to() accumulates with a plain +=.
            for r in cls.costs:
                self._util_integral.setdefault(r, 0.0)
        self._classes[key] = cls
        self._index = None  # before _admit_due: the class has no slot yet
        return cls

    def invalidate_paths(self) -> None:
        """Topology changed (fault, repair, reroute): re-characterize
        every active flow's path and re-solve.  Remaining volumes carry
        over; rates change from *now* on (piecewise-constant coupling).
        """
        carried: list[tuple[_Flow, float]] = []
        for cls in self._classes.values():  # _busy may be stale here
            for key, _, flow in cls.heap:
                carried.append((flow, max(0.0, key - cls.drained)))
        self._classes.clear()
        for flow, remaining_bits in carried:
            if remaining_bits <= _DRAIN_EPS:
                self._finish(flow)
            else:
                self._class_for(flow.src, flow.dst).add(flow, remaining_bits)
        self._index = None
        for name, demand in self._static.items():
            self._static_costs(name, demand)
        self._resolve()

    # -- solving -----------------------------------------------------------
    def _build_index(self) -> tuple:
        """Rebuild the drop set, the slots, the busy list and the fill's index.

        One drop set over every class (empty ones too) and routable static
        demand rebuilds every ``solve_costs``: dominance over a superset of
        demands holds for each subset, so the set serves every re-solve.
        Position ``i`` is class slot ``i`` in creation order, then the
        routable static demands in registration order (one without a route
        is silent): each position's cap, freeze limit, solve costs and
        count (1 until a re-solve counts a busy class), each resource's
        users ``(position, cost)`` over the busy classes and the static
        demands, and the static demands' positions.  Both parts were
        checked when they were characterized."""
        demands: list[Any] = list(self._classes.values())
        n_classes = len(demands)
        demands += [d for d in self._static.values() if d.costs is not None]
        drop = _dominated([d.costs for d in demands])
        busy = []
        users: dict[str, list[tuple[int, float]]] = {}
        for i, d in enumerate(demands):
            d.solve_costs = {r: c for r, c in d.costs.items() if r not in drop}
            if i < n_classes:
                d.slot = i
                if not d.heap:
                    continue
                busy.append(d)
            for r, x in d.solve_costs.items():
                users.setdefault(r, []).append((i, x))
        self._busy = busy
        return (
            [d.cap for d in demands],
            [d.limit for d in demands],
            [1] * len(demands),
            [d.solve_costs for d in demands],
            users,
            range(n_classes, len(demands)),
        )

    def _went_busy(self, cls: _PathClass) -> None:
        """Add a class that just got its first flow to the kept index."""
        users = self._index[4]
        for r, x in cls.solve_costs.items():
            insort(users.setdefault(r, []), (cls.slot, x))
        insort(self._busy, cls, key=_slot)

    def _went_idle(self, cls: _PathClass) -> None:
        """Take a class whose last flow left out of the kept index."""
        users = self._index[4]
        for r in cls.solve_costs:
            us = users[r]
            del us[bisect_left(us, (cls.slot,))]
            if not us:
                del users[r]
        self._busy.remove(cls)

    def _resolve(self) -> None:
        if self._index is None:
            self._index = self._build_index()
        cap_of, limit, mult, uses, users, statics = self._index
        busy = self._busy
        play = []
        for cls in busy:
            slot = cls.slot
            mult[slot] = len(cls.heap)
            play.append(slot)
        play += statics
        if play:
            rates = max_min_rates(cap_of, limit, mult, uses, users, play)
            for cls in busy:
                cls.rate = rates[cls.slot]
        self.resolves += 1
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
            for r, c in cls.cost_items:
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
        now = self.now
        if not now <= t < INF:
            raise ValueError(f"t={t} is not finite or before now ({now})")
        dt = t - now
        if dt > 0:
            util = self._util_integral
            for cls in self._busy:
                rate = cls.rate
                if rate > 0:
                    cls.drained += rate * dt
                    total = len(cls.heap) * rate * dt
                    for r, c in cls.cost_items:
                        util[r] += total * c
            self._active_integral += self._active * dt
            self.now = t
        changed = self._harvest()
        changed = self._admit_due() or changed
        if changed:
            self._resolve()
        return changed

    def _harvest(self) -> bool:
        changed = False
        now = self.now
        idle = []
        for cls in self._busy:
            rate = cls.rate
            heap = cls.heap
            if rate == INF:
                while heap:
                    self._finish(heapq.heappop(heap)[2])
                changed = True
            else:
                # A remainder the clock cannot traverse (finishing within
                # one ulp of `now`) is done *now* — without the rate-scaled
                # term a sub-ulp residue stalls the event loop forever.
                eps = rate * now * 4e-16
                limit = cls.drained + (eps if eps > _DRAIN_EPS else _DRAIN_EPS)
                while heap and heap[0][0] <= limit:
                    self._finish(heapq.heappop(heap)[2])
                    changed = True
            if not heap:
                cls.rate = 0.0
                idle.append(cls)
        if self._index is not None:
            for cls in idle:  # after the walk over ``_busy``
                self._went_idle(cls)
        return changed

    def _finish(self, flow: _Flow) -> None:
        done = CompletedFlow(
            flow.name, flow.src, flow.dst, flow.nbytes, flow.arrived, self.now
        )
        self.completed.append(done)
        self._active -= 1
        if self.on_complete is not None:
            self.on_complete(done)

    def _admit_due(self) -> bool:
        changed = False
        pending = self._pending
        while pending and pending[0][0] <= self.now:
            _, _, name, src, dst, nbytes = pending[0]
            cls = self._class_for(src, dst)  # may raise: the flow stays queued
            heapq.heappop(pending)
            if not cls.heap and self._index is not None:
                self._went_busy(cls)
            cls.add(_Flow(name, src, dst, nbytes, self.now, 0.0))
            self._active += 1
            self.arrived += 1
            self.peak_active = max(self.peak_active, self._active)
            changed = True
        return changed

    def run(self, until: Optional[float] = None) -> "FluidEngine":
        """Standalone drive: step event to event until nothing is
        pending (or the ``until`` horizon).  Flows stuck at rate zero on
        a partitioned path stay active; they are not events."""
        if until is not None and not self.now <= until < INF:
            raise ValueError(f"until={until} is not finite or before now ({self.now})")
        while (t := self.next_event_time()) < INF and (until is None or t <= until):
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
