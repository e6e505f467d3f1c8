"""TCP throughput model for the testbed paths.

Two views that must agree (and are cross-checked in the tests):

* :func:`tcp_steady_throughput` — closed-form steady state: the minimum of
  the window limit ``W/RTT`` and the slowest pipeline stage on the path
  (wire serialization with framing overhead, host stack per-packet cost,
  host I/O bus, gateway forwarding).
* :class:`repro.netsim.flows.BulkTransfer` — the discrete-event sliding
  window implementation measured end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.netsim.core import Gateway, Network
from repro.netsim.ip import ClassicalIP


@dataclass
class PathCharacterization:
    """Per-full-size-segment stage costs along a path.

    ``stages`` names each serial pipeline stage the way the figures do
    (``sp2.iobus``, ``dfn.wire``); ``resources`` keys the same costs by
    the *physical resource* they occupy, so two flows whose paths share
    a resource key contend for it — the basis of
    :func:`fair_share_throughputs`.  Resource keys: ``host:{h}:stack`` /
    ``host:{h}:iobus`` (one CPU / bus serves both directions),
    ``link:{name}:{src}`` (a transmitter is directional), ``gw:{g}``
    (the serial forwarding worker serves both directions).
    """

    stages: dict[str, float] = field(default_factory=dict)  #: name -> seconds
    resources: dict[str, float] = field(default_factory=dict)  #: resource -> seconds
    rtt: float = 0.0  #: zero-load round trip of a full segment + ack
    mss: int = 0

    @property
    def bottleneck_stage(self) -> str:
        """Name of the slowest stage (``"none"`` for a free path — all
        zero-cost hosts on infinite-rate wires)."""
        if not self.stages:
            return "none"
        return max(self.stages, key=self.stages.get)

    @property
    def per_packet_time(self) -> float:
        """Seconds per segment at the bottleneck (0 for a free path)."""
        return max(self.stages.values(), default=0.0)

    def pipeline_rate(self) -> float:
        """Goodput (bit/s of application payload) ignoring the window."""
        t = self.per_packet_time
        return self.mss * 8 / t if t > 0 else float("inf")

    def per_bit_costs(self) -> dict[str, float]:
        """The resource costs in seconds per payload bit."""
        bits = self.mss * 8.0
        return {r: t / bits for r, t in self.resources.items()}


def characterize_path(
    net: Network, src: str, dst: str, ip: ClassicalIP
) -> PathCharacterization:
    """Walk the routed path and collect per-stage costs for full segments.

    Raises :class:`ValueError` for ``src == dst`` — a self-path has no
    wire, no stages and no meaningful RTT, and every earlier caller that
    hit it got an arbitrary crash out of the routing layer instead of a
    diagnosis.
    """
    if src == dst:
        raise ValueError(
            f"cannot characterize a self-path: src == dst == {src!r}"
        )
    mss = ip.max_segment
    ip_bytes = ip.datagram_bytes(mss)
    path, links = net.path_links(src, dst)
    out = PathCharacterization(mss=mss)
    rtt = 0.0

    for name in (src, dst):
        host = net.host(name)
        if host.cpu_per_packet:
            out.stages[f"{name}.stack"] = host.cpu_per_packet
            out.resources[f"host:{name}:stack"] = host.cpu_per_packet
            rtt += 2 * host.cpu_per_packet
        if host.io_bus_rate != float("inf"):
            t = ip_bytes * 8 / host.io_bus_rate
            out.stages[f"{name}.iobus"] = t
            out.resources[f"host:{name}:iobus"] = t
            rtt += t

    # Walk the exact links routing chose (parallel-link aware): a
    # by-neighbour-name lookup would be ambiguous on a redundant bundle.
    for (u, v), link in zip(zip(path, path[1:]), links):
        wire = link.framing.wire_bytes(ip_bytes)
        t = wire * 8 / link.rate
        if t > 0:  # an infinite-rate wire is not a pipeline stage
            out.stages[f"{link.name}.wire"] = t
            out.resources[f"link:{link.name}:{u}"] = t
        ack_wire = link.framing.wire_bytes(40)
        rtt += t + 2 * link.propagation + ack_wire * 8 / link.rate
        node = net.nodes[v]
        if isinstance(node, Gateway) and node.per_packet:
            out.stages[f"{v}.forward"] = node.per_packet
            out.resources[f"gw:{v}"] = node.per_packet
            rtt += 2 * node.per_packet

    out.rtt = rtt
    return out


def tcp_steady_throughput(
    net: Network,
    src: str,
    dst: str,
    ip: ClassicalIP,
    window_bytes: float = float("inf"),
) -> float:
    """Predicted steady-state TCP goodput in bit/s of application data."""
    char = characterize_path(net, src, dst, ip)
    window_rate = window_bytes * 8 / char.rtt if char.rtt > 0 else float("inf")
    return min(char.pipeline_rate(), window_rate)


def tcp_loss_throughput_bound(
    net: Network,
    src: str,
    dst: str,
    ip: ClassicalIP,
    loss_rate: float,
    window_bytes: float = float("inf"),
) -> float:
    """Upper bound on goodput under random per-packet loss ``loss_rate``.

    The Mathis/Semke/Mahdavi steady-state form ``MSS/(RTT*sqrt(2p/3))``
    capped by the zero-loss limit of :func:`tcp_steady_throughput`.  The
    discrete-event :class:`~repro.netsim.flows.BulkTransfer` under
    injected loss must measure at or below this (cross-checked in the
    tests); at ``loss_rate=0`` it degenerates to the zero-loss reference,
    and at ``loss_rate=1`` (every packet lost) the bound is exactly 0 —
    the raw Mathis form would still report a positive goodput there.
    Rates outside ``[0, 1]`` are a caller bug and raise ``ValueError``.
    """
    if not 0.0 <= loss_rate <= 1.0:
        raise ValueError(f"loss_rate must be in [0, 1], got {loss_rate}")
    zero_loss = tcp_steady_throughput(net, src, dst, ip, window_bytes)
    if loss_rate <= 0:
        return zero_loss
    if loss_rate >= 1.0:
        return 0.0
    char = characterize_path(net, src, dst, ip)
    if char.rtt <= 0:
        return zero_loss
    mathis = char.mss * 8 / (char.rtt * math.sqrt(2.0 * loss_rate / 3.0))
    return min(zero_loss, mathis)


@dataclass(frozen=True)
class FlowDemand:
    """A hypothetical flow for :func:`fair_share_throughputs`.

    Duck-types the attributes the solver reads off real flow objects:
    :class:`~repro.netsim.flows.BulkTransfer` contributes
    ``src/dst/ip/window_bytes/name``; a fixed-rate source (CBR video)
    is expressed through ``rate`` (bit/s of application payload),
    mirroring ``frame_bytes * 8 / interval``.
    """

    name: str
    src: str
    dst: str
    ip: ClassicalIP = field(default_factory=ClassicalIP)
    window_bytes: float = float("inf")
    rate: float = float("inf")  #: fixed offered-rate cap, bit/s of payload


def max_min_rates(
    costs: Mapping[str, Mapping[str, float]],
    caps: Mapping[str, float],
    counts: Mapping[str, int] | None = None,
) -> dict[str, float]:
    """Water-fill max-min rates from precomputed per-bit resource costs.

    ``costs`` maps each demand name to ``{resource: seconds per bit}``;
    ``caps`` bounds each demand's own rate (``inf`` for uncapped).
    ``counts`` optionally aggregates *classes* of identical demands: a
    class with count ``m`` occupies ``m × rate × cost`` of each resource
    and the returned rate is the per-member rate.  Aggregation is exact
    for max-min fairness — members of a class face identical constraints,
    so progressive filling raises them in lockstep — and is what lets
    the fluid engine (:mod:`repro.fluid`) re-solve thousands of
    concurrent flows as a handful of path classes.

    This is the solver core of :func:`fair_share_throughputs`.  It
    checks every demand (:func:`check_demand`), builds the index —
    each demand's cap, freeze limit and costs, and each resource's
    users in ``costs`` order — and hands it to :func:`water_fill` with
    every position in play.  The fluid engine keeps its own index over
    every path class and static demand, updates each resource's users
    as classes go busy and idle, and calls :func:`water_fill` alone on
    each re-solve, with the busy classes and the static demands in play.

    Raises :class:`ValueError` naming the demand for a negative, NaN or
    infinite cost, a negative or NaN cap, a count below 1, not finite
    or not a whole number, a demand without a cap, or a count for a name not in
    ``costs``, and naming the resource when its users' count × cost
    terms add up to ``inf``.  A zero cap with no costs is valid: it
    parks the demand at rate 0.
    """
    inf = float("inf")
    n_of = counts or {}
    # Demands are indexed by position: names may be tuples, which would
    # be re-hashed at every lookup.
    cap_of: list[float] = []
    limit: list[float] = []
    mult: list[int] = []
    uses: list[Mapping[str, float]] = []
    users: dict[str, list[tuple[int, float]]] = {}
    counted = 0
    for i, (n, c) in enumerate(costs.items()):
        m = n_of.get(n, 1)
        if n in n_of:
            counted += 1
        if not 1 <= m < inf:
            raise ValueError(f"demand {n!r}: count {m!r} is below 1 or not finite")
        if m % 1:
            raise ValueError(f"demand {n!r}: count {m!r} is not a whole number")
        try:
            cap = caps[n]
        except KeyError:
            raise ValueError(f"demand {n!r} has no cap") from None
        cap_of.append(cap)
        limit.append(check_demand(n, c, cap))
        mult.append(m)
        uses.append(c)
        for r, x in c.items():
            users.setdefault(r, []).append((i, x))
    if counted != len(n_of):
        extra = next(n for n in n_of if n not in costs)
        raise ValueError(f"count given for {extra!r}, which has no costs")
    rates = water_fill(cap_of, limit, mult, uses, users, range(len(cap_of)))
    return dict(zip(costs, rates))


def check_demand(name: Any, costs: Mapping[str, float], cap: float) -> float:
    """Check one demand for :func:`water_fill` and return its freeze limit.

    Raises :class:`ValueError` naming ``name`` for a negative or NaN
    ``cap`` or a negative, NaN or infinite cost (an infinite cost would
    make a ``0 × inf`` NaN load).  The limit is the rate at which the
    fill freezes the demand at its cap: a hair below a finite cap."""
    inf = float("inf")
    if not cap >= 0.0:
        raise ValueError(f"demand {name!r}: cap {cap!r} is negative or NaN")
    for r, x in costs.items():
        if not 0.0 <= x < inf:
            raise ValueError(
                f"demand {name!r}: cost {x!r} on {r!r} is negative, NaN or infinite"
            )
    return cap - 1e-9 * max(1.0, cap) if cap != inf else cap


def water_fill(
    cap_of: list[float],
    limit: list[float],
    mult: list[int],
    uses: list[Mapping[str, float]],
    users: Mapping[str, list[tuple[int, float]]],
    play: Sequence[int],
) -> list[float]:
    """The max-min fill over a checked index; returns the rate per position.

    Position ``i`` has cap ``cap_of[i]``, freeze limit ``limit[i]`` (from
    :func:`check_demand`), count ``mult[i]`` (a whole number, at least
    1) and costs ``uses[i]``; ``users`` maps each resource to its users
    ``(i, cost)`` in position order.  Only the positions in ``play`` are
    solved: every other position reads 0.0, its count is never read, and
    a ``users`` entry for it adds nothing.  Every sum below adds the same
    terms, left to right in the same order, as a scan of the demands in
    play would, so the rates equal that scan's bit for bit and depend
    neither on the string hash seed nor on the interpreter (the builtin
    ``sum`` of floats is compensated from Python 3.12 on), nor on the
    order of ``users``' keys: a step is a minimum, and freezing order
    does not matter.  The inputs are only read, so a caller may keep
    them across calls.  Raises :class:`ValueError` naming a resource
    when its in-play users' count × cost terms add up to ``inf``."""
    inf = float("inf")
    # Every live demand starts at 0.0 and gets the same deltas in the
    # same order, so its rate is exactly ``level``; a frozen one keeps
    # the level it froze at.  ``ml`` is count × rate; ``live`` flags the
    # demands not yet frozen, ``n_live`` counts them.
    n = len(cap_of)
    level = 0.0
    rates = [0.0] * n
    ml = [0.0] * n
    live = [False] * n
    for i in play:
        live[i] = True
    n_live = len(play)
    # Each resource's load at the current rates; all rates start at 0.0.
    load = dict.fromkeys(users, 0.0)
    # Each resource's live demand: the load that one bit/s more on every
    # live flow adds.  A zero demand never changes the load, so that
    # resource never saturates and is left out.  Every resource starts
    # out touched, then only those a newly frozen demand uses.
    demand = dict.fromkeys(users, 0.0)
    touched: Iterable[str] = users
    while n_live:
        # A resource that no frozen demand uses keeps the same live terms
        # in the same order, so its demand is unchanged.
        for r in touched:
            if r in demand:
                d = 0.0
                for i, x in users[r]:
                    if live[i]:
                        d += mult[i] * x
                # Every later live demand adds a subsequence of the first
                # one's terms, so none can overflow when that one does not.
                if d == inf:
                    raise ValueError(f"resource {r!r}: count × cost overflows to inf")
                if d > 0:
                    demand[r] = d
                else:
                    del demand[r]
        # Tightest constraint over live flows.  Float subtraction rounds
        # monotonically, so ``cap_min - level`` is the least per-demand
        # distance to a cap.
        cap_min = min([cap_of[i] for i in play if live[i]])
        delta = cap_min - level
        for r, d in demand.items():
            slack = 1.0 - load[r]
            step = (slack if slack > 0.0 else 0.0) / d
            if step < delta:
                delta = step
        if delta == inf:
            # No finite constraint left (free paths, uncapped flows).
            level = inf
            break
        level += delta
        frozen = []
        for i in play:
            if live[i]:
                ml[i] = mult[i] * level
                if level >= limit[i]:
                    live[i] = False
                    frozen.append(i)
        for r in demand:
            # Each term is (count × rate) × cost, as in a per-demand scan.
            us = users[r]
            ld = 0.0
            for i, x in us:
                ld += ml[i] * x
            load[r] = ld
            if ld >= 1.0 - 1e-9:  # saturated: freeze every live user
                for i, _ in us:
                    if live[i]:
                        live[i] = False
                        frozen.append(i)
        if not frozen:  # numerical stall guard: never loop forever
            break
        n_live -= len(frozen)
        touched = set()
        for i in frozen:
            rates[i] = level
            touched.update(uses[i])
    for i in play:
        if live[i]:
            rates[i] = level
    return rates


def demand_cap(flow: Any, char: PathCharacterization) -> float:
    """The flow's own rate ceiling, duck-typed off the flow object:
    a fixed offered rate (``rate``), a CBR frame cadence, a ping probe
    cadence, or the TCP window limit ``W·8/RTT``."""
    cap = float(getattr(flow, "rate", float("inf")))
    frame_bytes = getattr(flow, "frame_bytes", None)
    if frame_bytes is not None:  # CbrFlow: fixed frame cadence
        cap = min(cap, frame_bytes * 8 / flow.interval)
    payload = getattr(flow, "payload", None)
    if payload is not None:  # PingFlow: tiny probes on a timer
        cap = min(cap, payload * 8 / flow.interval)
    window = getattr(flow, "window_bytes", float("inf"))
    if window != float("inf") and char.rtt > 0:
        cap = min(cap, window * 8 / char.rtt)
    return cap


def fair_share_throughputs(
    net: Network, flows, ip: ClassicalIP | None = None
) -> dict[str, float]:
    """Max-min fair goodput (bit/s of payload) per concurrent flow.

    Water-filling (progressive filling) over the shared resources from
    :func:`characterize_path`: every unfrozen flow's rate rises at the
    same pace until a resource saturates — freezing all flows crossing
    it — or a flow hits its own cap (window limit ``W·8/RTT``, or a
    fixed offered rate for CBR-style sources, which under round-robin
    service receives exactly ``min(rate, fair share)``).  Repeats until
    every flow is frozen; the result is the unique max-min allocation.

    ``flows`` may be live flow objects (:class:`BulkTransfer`,
    :class:`CbrFlow`, :class:`PingFlow` — attributes are duck-typed) or
    :class:`FlowDemand` records; ``ip`` supplies the IP layer for
    entries that don't carry their own.  This is the closed-form
    reference the discrete-event DRR schedulers are cross-checked
    against: the model shares *goodput* while DRR shares *wire bytes*,
    so the two agree when competing flows use the same MTU and framing
    (as the testbed scenarios do).
    """
    costs: dict[str, dict[str, float]] = {}  # flow -> resource -> s/bit
    caps: dict[str, float] = {}
    for flow in flows:
        name = flow.name
        if name in costs:
            raise ValueError(f"duplicate flow name {name!r}")
        flow_ip = getattr(flow, "ip", None) or ip or ClassicalIP()
        char = characterize_path(net, flow.src, flow.dst, flow_ip)
        costs[name] = char.per_bit_costs()
        caps[name] = demand_cap(flow, char)
    return max_min_rates(costs, caps)


@dataclass(frozen=True)
class TcpModel:
    """Bundles the IP layer and window for a connection."""

    ip: ClassicalIP
    window_bytes: int = 8 * 1024 * 1024
    slow_start: bool = False

    def predicted_throughput(self, net: Network, src: str, dst: str) -> float:
        """Closed-form goodput prediction for this connection."""
        return tcp_steady_throughput(net, src, dst, self.ip, self.window_bytes)
