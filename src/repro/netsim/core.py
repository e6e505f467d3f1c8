"""Packet-level discrete-event network: hosts, switches, gateways, links.

The model is store-and-forward at packet granularity with per-link
framing overhead (ATM cell tax, HiPPI bursts), which reproduces the
throughput phenomena the paper reports without simulating every one of
the ~6 million cells/s an OC-48 carries.  Cell-exact behaviour is
available separately in :mod:`repro.netsim.atm` for validation.

Performance-relevant host effects of 1999 hardware are first-class:

* ``cpu_per_packet`` — protocol-stack traversal cost; with small MTUs this,
  not the wire, is the bottleneck (why the testbed used 64 KByte MTUs).
* ``io_bus_rate`` — host I/O bus ceiling (the microchannel of the IBM SP2
  nodes, which limited the WAN path to ~260 Mbit/s; paper Section 2).
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.netsim.atm import aal5_wire_bytes
from repro.netsim.hippi import hippi_wire_bytes
from repro.netsim.ip import LLC_SNAP_HEADER
from repro.netsim.sched import DrrScheduler
from repro.sim import Environment, Lane
from repro.util.units import check_rate, check_seconds

_packet_ids = itertools.count()

#: Reference datagram size (bytes) for the serialization term of the
#: routing cost metric (:func:`route_cost`) — a typical full Ethernet
#: frame.  The absolute value barely matters (propagation dominates on
#: WAN spans); what matters is that every process computes the identical
#: cost for the identical link.
ROUTE_COST_BYTES = 1500


def route_cost(link: "Link") -> float:
    """Routing cost of one link traversal: propagation delay plus the
    serialization time of a :data:`ROUTE_COST_BYTES` reference datagram
    under the link's framing.

    A pure function of the link's static parameters (memoized on the
    link), so every permutation of construction order prices an edge
    identically.
    """
    cost = link._route_cost
    if cost is None:
        cost = link._route_cost = (
            link.propagation
            + link.framing.wire(ROUTE_COST_BYTES) * 8.0 / link.rate
        )
    return cost


def _count_by_flow(packets) -> dict[str, int]:
    """Group a batch of packets (e.g. a flushed queue) by flow name."""
    counts: dict[str, int] = {}
    for packet in packets:
        counts[packet.flow] = counts.get(packet.flow, 0) + 1
    return counts


@dataclass(slots=True)
class Packet:
    """One IP datagram in flight.

    ``ip_bytes`` includes IP/TCP headers; link framing (cells, bursts) is
    added per hop by the link's :class:`Framing`.  Slotted: millions are
    allocated per run, and no simulator attaches ad-hoc attributes
    (``meta`` is the extension point).
    """

    flow: str
    src: str
    dst: str
    ip_bytes: int
    payload_bytes: int
    kind: str = "data"
    seq: int = 0
    created: float = 0.0
    meta: dict = field(default_factory=dict)
    uid: int = field(default_factory=lambda: next(_packet_ids))
    hops: int = 0
    #: True while the packet is owned by a :class:`PacketPool` cycle;
    #: the delivering host returns it to the pool after the sink runs.
    pooled: bool = False


class PacketPool:
    """Arena-style reuse of :class:`Packet` objects.

    High-rate sources (CBR video frames, ping trains — thousands of
    flows in the hybrid runs) acquire packets here instead of
    constructing them; the delivering :class:`Host` returns each packet
    to the pool after its sink callback finishes, because the canonical
    consumers (flow sinks, delivery recording) copy scalars out and
    never retain the object.  Dropped or lost packets simply fall to the
    garbage collector — only clean deliveries recycle.

    Every acquire resets all fields and assigns a *fresh* ``uid``, so a
    recycled object is indistinguishable from a newly constructed one.
    ``allocs``/``reuses`` quantify the allocation pressure saved (the
    hybrid benchmark reports them).
    """

    __slots__ = ("_free", "limit", "allocs", "reuses")

    def __init__(self, limit: int = 4096):
        self._free: list[Packet] = []
        self.limit = limit
        self.allocs = 0
        self.reuses = 0

    def acquire(
        self,
        flow: str,
        src: str,
        dst: str,
        ip_bytes: int,
        payload_bytes: int,
        kind: str = "data",
        seq: int = 0,
    ) -> Packet:
        """A packet with the given header fields, recycled if possible."""
        free = self._free
        if free:
            self.reuses += 1
            p = free.pop()
            p.flow = flow
            p.src = src
            p.dst = dst
            p.ip_bytes = ip_bytes
            p.payload_bytes = payload_bytes
            p.kind = kind
            p.seq = seq
            p.created = 0.0
            if p.meta:
                p.meta.clear()
            p.uid = next(_packet_ids)
            p.hops = 0
            p.pooled = True
            return p
        self.allocs += 1
        return Packet(
            flow=flow,
            src=src,
            dst=dst,
            ip_bytes=ip_bytes,
            payload_bytes=payload_bytes,
            kind=kind,
            seq=seq,
            pooled=True,
        )

    def release(self, packet: Packet) -> None:
        """Return a delivered packet to the arena (host-side seam)."""
        packet.pooled = False
        if len(self._free) < self.limit:
            self._free.append(packet)


#: The shared arena used by pool-aware flows (one per process is fine:
#: acquire/release only ever run inside the simulation loop).
packet_pool = PacketPool()


class Framing:
    """Per-link encapsulation: maps IP datagram bytes to wire bytes.

    Subclasses implement :meth:`wire_bytes`; the transmitters call
    :meth:`wire`, which memoizes per datagram size — flows send
    uniform-size packets, so each link computes the cell/burst math once
    per distinct size instead of once per packet.
    """

    name = "raw"

    __slots__ = ("_wire_cache",)

    def __init__(self):
        self._wire_cache: dict[int, int] = {}

    def wire(self, ip_bytes: int) -> int:
        """Memoized :meth:`wire_bytes`."""
        wire = self._wire_cache.get(ip_bytes)
        if wire is None:
            wire = self._wire_cache[ip_bytes] = self.wire_bytes(ip_bytes)
        return wire

    def wire_bytes(self, ip_bytes: int) -> int:
        raise NotImplementedError


class AtmFraming(Framing):
    """LLC/SNAP + AAL5 + 53-byte cells (classical IP over ATM)."""

    name = "atm"

    __slots__ = ()

    def wire_bytes(self, ip_bytes: int) -> int:
        return aal5_wire_bytes(ip_bytes + LLC_SNAP_HEADER)


class HippiFraming(Framing):
    """HiPPI-FP framing with burst rounding."""

    name = "hippi"

    __slots__ = ()

    def wire_bytes(self, ip_bytes: int) -> int:
        return hippi_wire_bytes(ip_bytes)


class PlainFraming(Framing):
    """A generic LAN framing with a constant per-packet overhead."""

    name = "plain"

    __slots__ = ("overhead",)

    def __init__(self, overhead: int = 18):
        super().__init__()
        self.overhead = overhead

    def wire_bytes(self, ip_bytes: int) -> int:
        return ip_bytes + self.overhead


class _DirState:
    """Hot per-direction transmitter state: one dict lookup, then slots.

    The transmit path used to consult a dozen separate per-direction
    dicts keyed by the sending node's name; at hundreds of kilopackets
    per second those string-keyed lookups dominated the per-packet
    budget.  Everything private to one direction of the transmitter now
    lives on this slotted record, fetched once per operation.  The hot
    transmit counters live here too; the Link exposes them through
    read-time dict views (``tx_bytes``, ``busy_time``, …) so tests and
    telemetry keep their per-direction-dict surface.
    """

    __slots__ = (
        "q",          # DrrScheduler (same object as Link._queues[d])
        "dst",        # far Node of this direction
        "fold",       # far switch latency folded into arrivals, or None
        "eff",        # effective serialization rate (background load)
        "ws",         # ip_bytes -> (wire_bytes, serialization_s) memo
        "bu",         # busy_until: end of the last committed serialization
        "inflight",   # (t_done, packet, heap entry) of the last start
        "armed",      # a resume entry is armed at bu
        "resume",     # the armed resume heap entry (for cancellation)
        "lossy",      # wire loss on: packets get a completion judgement
        "txb",        # transmitted wire bytes (Link.tx_bytes view)
        "txp",        # transmitted packets (Link.tx_packets view)
        "fb",         # per-flow wire bytes (Link.flow_tx_bytes view)
        "fp",         # per-flow packets (Link.flow_tx_packets view)
        "bt",         # serialization-busy seconds (Link.busy_time view)
    )

    def __init__(self, q: DrrScheduler, dst: "Node", fold, rate: float):
        self.q = q
        self.dst = dst
        self.fold = fold
        self.eff = rate
        self.ws: dict[int, tuple] = {}
        self.bu = 0.0
        self.inflight: Optional[tuple] = None
        self.armed = False
        self.resume: Optional[list] = None
        self.lossy = False
        self.txb = 0
        self.txp = 0
        self.fb: dict[str, int] = {}
        self.fp: dict[str, int] = {}
        self.bt = 0.0


class Link:
    """A full-duplex point-to-point link between two nodes.

    Each direction has its own transmit scheduler and transmitter
    process: serialization at ``rate`` (on framed wire bytes) followed by
    ``propagation`` seconds of flight.  ``queue_packets`` bounds the
    transmit queue (waiting packets across all flows); excess packets are
    dropped (counted per direction).

    Concurrent flows sharing a direction are served fairly, not
    FIFO-by-arrival: each flow gets its own queue inside a
    :class:`~repro.netsim.sched.DrrScheduler` and deficit round robin
    picks the next packet by framed wire bytes, so an aggressive bulk
    flow cannot starve a CBR video or ping stream the way a single
    shared FIFO lets it.  With one flow the service order degenerates to
    FIFO, leaving single-flow runs bit-identical to the pre-DRR link.
    Per-flow transmit and drop tallies live in ``flow_tx_bytes`` /
    ``flow_tx_packets`` / ``flow_drops`` (per direction, keyed by flow
    name); :func:`repro.telemetry.probes.instrument_network` can expose
    them as labeled metrics.

    Failure model (driven by :class:`repro.netsim.faults.FaultInjector`):

    * ``up`` — link state.  A down link refuses new packets at enqueue
      (counted in ``drops``), flushes its transmit queues, and loses any
      packet whose serialization completes while it is down (counted in
      ``lost``).  State changes invalidate the owning network's routes.
    * ``loss_rate`` — per-direction random wire loss probability, applied
      after serialization with a caller-supplied (seeded) RNG so runs are
      deterministic.  Lost packets are counted in ``lost``.

    Every packet death is additionally tallied in ``drop_reasons`` under
    a typed reason (``link_down``, ``queue_full``, ``tx_link_down``,
    ``wire_loss``), and an optional telemetry ``probe`` (installed by
    :func:`repro.telemetry.probes.instrument_network`) sees transmit,
    drop and state-change events.  Uninstrumented links pay one ``is
    None`` branch per event and nothing else.
    """

    def __init__(
        self,
        env: Environment,
        a: "Node",
        b: "Node",
        rate: float,
        propagation: float = 0.0,
        framing: Optional[Framing] = None,
        name: str = "",
        queue_packets: int | float = float("inf"),
    ):
        check_rate("link rate", rate)
        if not propagation >= 0:
            raise ValueError(
                f"link propagation must be non-negative, got {propagation!r}"
            )
        if not queue_packets >= 0:
            raise ValueError(
                f"link queue_packets must be non-negative, got {queue_packets!r}"
            )
        self.env = env
        self.a = a
        self.b = b
        self.rate = rate
        self.propagation = propagation
        self.framing = framing or PlainFraming()
        self.name = name or f"{a.name}--{b.name}"
        self.queue_packets = queue_packets
        self.up = True
        self.network: Optional["Network"] = None
        self.probe: Optional[Any] = None
        #: memoized :func:`route_cost` (rate/framing/propagation are fixed
        #: for the link's lifetime)
        self._route_cost: Optional[float] = None
        wire_cost = self._wire_cost
        self._queues = {
            a.name: DrrScheduler(cost=wire_cost),
            b.name: DrrScheduler(cost=wire_cost),
        }
        self.drops = {a.name: 0, b.name: 0}
        self.lost = {a.name: 0, b.name: 0}
        self.drop_reasons: dict[str, int] = {}
        self.loss_rate = {a.name: 0.0, b.name: 0.0}
        # One RNG per direction: each direction's loss pattern is a
        # function of its own packet sequence only, never of the
        # reverse direction's traffic volume.
        self._loss_rngs: dict[str, Optional[random.Random]] = {
            a.name: None,
            b.name: None,
        }
        #: per-direction, per-flow drop tallies (flow name -> count);
        #: transmit counters live on the per-direction state records and
        #: surface through the dict-view properties below.
        self.flow_drops: dict[str, dict[str, int]] = {a.name: {}, b.name: {}}
        #: Fluid background share per direction (fraction of ``rate``
        #: consumed by analytically-simulated flows; see repro.fluid).
        #: Zero keeps the transmitter bit-identical to the seamless link.
        self.background_share = {a.name: 0.0, b.name: 0.0}
        # -- per-direction transmitter state -------------------------------
        # One slotted record per direction holds everything private to
        # the transmitter.  It schedules ONE heap entry per packet at
        # serialization start: the arrival at the far node, or on a
        # lossy direction a completion-time judgement (_judge).
        # Faults invalidate a pre-scheduled arrival by cancelling its
        # heap entry in place (Environment.cancel).
        # ``fold``: when the far node is a plain Switch with nonzero
        # latency, the arrival entry targets its forward() directly at
        # arrival + latency — one heap entry fewer per hop.
        self._dir: dict[str, _DirState] = {}
        for me, far in ((a, b), (b, a)):
            fold = far.latency if type(far) is Switch and far.latency > 0.0 else None
            self._dir[me.name] = _DirState(
                self._queues[me.name], far, fold, rate
            )
        a.attach(self)
        b.attach(self)

    def other(self, node: "Node") -> "Node":
        """The peer of ``node`` on this link."""
        return self.b if node is self.a else self.a

    def _wire_cost(self, packet: Packet) -> int:
        """Framed wire bytes of ``packet`` — the DRR service cost."""
        return self.framing.wire(packet.ip_bytes)

    # -- public counter views ----------------------------------------------
    # The transmit path updates slotted per-direction records; these
    # read-time views keep the historical {direction: value} surface for
    # tests, telemetry probes and the terminal exporter.  Reads are cold
    # (sampling cadence), writes are per-packet — so the dict is built on
    # read, not maintained on write.

    @property
    def tx_bytes(self) -> dict[str, int]:
        """Transmitted wire bytes per direction."""
        return {d: st.txb for d, st in self._dir.items()}

    @property
    def tx_packets(self) -> dict[str, int]:
        """Transmitted packets per direction."""
        return {d: st.txp for d, st in self._dir.items()}

    @property
    def flow_tx_bytes(self) -> dict[str, dict[str, int]]:
        """Per-direction, per-flow transmitted wire bytes."""
        return {d: st.fb for d, st in self._dir.items()}

    @property
    def flow_tx_packets(self) -> dict[str, dict[str, int]]:
        """Per-direction, per-flow transmitted packets."""
        return {d: st.fp for d, st in self._dir.items()}

    @property
    def busy_time(self) -> dict[str, float]:
        """Serialization-busy seconds per direction (raw tally, credited
        at serialization start; :meth:`busy_seconds` gives the elapsed
        figure)."""
        return {d: st.bt for d, st in self._dir.items()}

    def set_flow_weight(self, flow: str, weight: float) -> None:
        """Scale ``flow``'s DRR share on both directions (default 1.0)."""
        for q in self._queues.values():
            q.set_weight(flow, weight)

    def set_background_load(self, direction: str, share: float) -> None:
        """Reserve ``share`` of one direction's capacity for fluid flows.

        The seam the hybrid engine (:mod:`repro.fluid.hybrid`) drives:
        long-lived bulk flows simulated analytically do not enqueue
        packets here, but the capacity they occupy must still slow the
        packet-level traffic sharing the link.  Serialization of every
        subsequent packet runs at ``rate × (1 - share)``; ``share`` is a
        fraction in ``[0, 1)``.  A zero share restores the exact
        unloaded transmitter, so packet-only runs stay bit-identical.
        Already-scheduled serializations are unaffected (piecewise-
        constant coupling at flow-event granularity).
        """
        if not 0.0 <= share < 1.0:
            raise ValueError(
                f"background share must be in [0, 1), got {share}"
            )
        st = self._dir.get(direction)
        if st is None:
            raise KeyError(f"{direction} is not an endpoint of {self.name}")
        self.background_share[direction] = share
        st.eff = self.rate * (1.0 - share)
        st.ws.clear()  # serialization memo was computed at the old rate

    def _drop(
        self, direction: str, reason: str, count: int = 1,
        flow: Optional[str] = None,
    ) -> None:
        """Count ``count`` packets dropped before reaching the wire."""
        self.drops[direction] += count
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + count
        if flow is not None:
            per_flow = self.flow_drops[direction]
            per_flow[flow] = per_flow.get(flow, 0) + count
        if self.probe is not None:
            self.probe.on_drop(self, direction, reason, count, flow)

    def _lose(self, direction: str, reason: str, flow: str) -> None:
        """Count one packet lost on the wire (after serialization)."""
        self.lost[direction] += 1
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
        per_flow = self.flow_drops[direction]
        per_flow[flow] = per_flow.get(flow, 0) + 1
        if self.probe is not None:
            self.probe.on_drop(self, direction, reason, 1, flow)

    def send(self, from_node: "Node", packet: Packet) -> None:
        """Enqueue ``packet`` for transmission from ``from_node``."""
        direction = from_node.name
        if not self.up:
            self._drop(direction, "link_down", flow=packet.flow)
            return
        st = self._dir[direction]
        env = self.env
        now = env._now
        if st.bu <= now and not st.armed:
            # Idle transmitter: start serializing right now — no queue
            # residency, no DRR state touched.  An armed resume means
            # queued work, or a flushed queue whose service decision is
            # still due at this instant.  The whole of _lazy_start is
            # inlined here because this lane carries nearly every packet
            # of an unsaturated run.
            ip = packet.ip_bytes
            ws = st.ws.get(ip)
            if ws is None:
                wire = self.framing.wire(ip)
                s = wire * 8 / st.eff
                st.ws[ip] = (wire, s)
            else:
                wire = ws[0]
                s = ws[1]
            st.txb += wire
            st.txp += 1
            flow = packet.flow
            per = st.fb
            per[flow] = per.get(flow, 0) + wire
            per = st.fp
            per[flow] = per.get(flow, 0) + 1
            t_done = now + s
            st.bt += s
            st.bu = t_done
            fold = st.fold
            if st.lossy:
                entry = env.call_at(t_done, self._judge, direction, packet)
            elif fold is None:
                entry = env.call_at(
                    t_done + self.propagation, self._arrive, st.dst, packet
                )
            else:
                entry = env.call_at(
                    t_done + self.propagation + fold,
                    self._sw_arrive, st.dst, packet,
                )
            st.inflight = (t_done, packet, entry)
            return
        # The queue bound counts waiting packets only; the in-service
        # packet left the queue when its serialization began.
        q = st.q
        if q._total >= self.queue_packets:
            self._drop(direction, "queue_full", flow=packet.flow)
            return
        q.put_nowait(packet)
        if not st.armed:
            self._arm(direction, st)

    def set_up(self, up: bool) -> None:
        """Change link state; going down flushes both transmit queues.

        An in-service packet keeps its serialization: it is judged at its
        completion instant (its pre-scheduled arrival becomes a
        :meth:`_judge` entry) and lost there as ``tx_link_down`` unless
        the link is back up by then.
        """
        if up == self.up:
            return
        self.up = up
        if not up:
            for d, st in self._dir.items():
                self._judge_inflight(d, st)
            for direction, q in self._queues.items():
                for flow, count in _count_by_flow(q.clear()).items():
                    self._drop(direction, "link_down", count, flow=flow)
        if self.probe is not None:
            self.probe.on_state(self, up)
        if self.network is not None:
            self.network.on_link_state_change()

    def set_loss(
        self,
        rate: float,
        direction: Optional[str] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Set random wire loss probability (``direction`` is the sending
        node's name; ``None`` sets both).  Pass a seeded ``rng`` for
        reproducible loss patterns; one is created otherwise.

        Each direction keeps its own RNG stream, so one direction's
        traffic volume never perturbs the other's loss pattern.  When
        ``rng`` is given for both directions at once, each direction gets
        an independent child seeded from it rather than sharing the
        object.
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {rate}")
        directions = [direction] if direction else [self.a.name, self.b.name]
        for d in directions:
            if d not in self.loss_rate:
                raise KeyError(f"{d} is not an endpoint of {self.name}")
        for d in directions:
            if rng is not None:
                self._loss_rngs[d] = (
                    rng
                    if len(directions) == 1
                    else random.Random(rng.getrandbits(64))
                )
            elif self._loss_rngs[d] is None and rate > 0.0:
                self._loss_rngs[d] = random.Random(0)
            self.loss_rate[d] = rate
            # Wire loss draws its RNG at serialization *end*, so a lossy
            # direction schedules a completion judgement per packet, and
            # turning loss on converts the in-service packet's arrival.
            st = self._dir[d]
            st.lossy = rate > 0.0
            if st.lossy:
                self._judge_inflight(d, st)

    # -- the transmitter: one pre-scheduled heap entry per packet ----------
    def _lazy_start(
        self, direction: str, st: "_DirState", packet: Packet, now: float
    ) -> None:
        """Serialize ``packet`` starting at ``now``, pre-scheduling the one
        heap entry the packet needs: its arrival at the far node, or on a
        lossy direction its completion judgement (:meth:`_judge`).

        The completion and arrival instants are built with one fixed
        float-add sequence (``now + serialization`` then ``+ propagation``
        then, when the far node is a folded switch, ``+ latency``), the
        same one an unfolded hop-by-hop chain would produce, so folding
        moves no timestamp.  Busy time is credited eagerly;
        :meth:`busy_seconds` subtracts the un-elapsed tail so pro-rated
        utilization stays exact.  (:meth:`send` inlines this body on its
        idle lane; keep the two in sync.)
        """
        ip = packet.ip_bytes
        ws = st.ws.get(ip)
        if ws is None:
            wire = self.framing.wire(ip)
            s = wire * 8 / st.eff
            st.ws[ip] = (wire, s)
        else:
            wire = ws[0]
            s = ws[1]
        st.txb += wire
        st.txp += 1
        flow = packet.flow
        per = st.fb
        per[flow] = per.get(flow, 0) + wire
        per = st.fp
        per[flow] = per.get(flow, 0) + 1
        t_done = now + s
        st.bt += s
        st.bu = t_done
        fold = st.fold
        if st.lossy:
            entry = self.env.call_at(t_done, self._judge, direction, packet)
        elif fold is None:
            entry = self.env.call_at(
                t_done + self.propagation, self._arrive, st.dst, packet
            )
        else:
            entry = self.env.call_at(
                t_done + self.propagation + fold, self._sw_arrive, st.dst, packet
            )
        st.inflight = (t_done, packet, entry)

    def _arrive(self, dst: "Node", packet: Packet) -> None:
        # Lazy pre-scheduled arrival.  No staleness check: an arrival
        # invalidated by a fault had its heap entry cancelled in place
        # (Environment.cancel), so only live entries reach here.
        packet.hops += 1
        dst.receive(packet, self)

    def _sw_arrive(self, sw: "Node", packet: Packet) -> None:
        # Folded form of arrive-at-switch + switch latency + forward,
        # with the route-cache hit inlined (the overwhelmingly common
        # case on a stable topology) to skip one call per switch hop.
        packet.hops += 1
        link = sw._fwd.get(packet.dst)
        if link is not None:
            link.send(sw, packet)
        else:
            sw.forward(packet)

    def _judge(self, direction: str, packet: Packet) -> None:
        """Completion-time fate of a packet on a lossy or faulted
        direction: lost to a link that went down mid-serialization, lost
        to the wire-loss draw, or put on the wire."""
        if not self.up:
            self._lose(direction, "tx_link_down", packet.flow)
            return
        rate = self.loss_rate[direction]
        rng = self._loss_rngs[direction]
        if rate > 0.0 and rng is not None and rng.random() < rate:
            self._lose(direction, "wire_loss", packet.flow)
            return
        # On the wire: the one arrival entry a lossless direction would
        # have scheduled, built with the same float additions.  With no
        # propagation and no fold the hand-off is inline.
        st = self._dir[direction]
        fold = st.fold
        if fold is not None:
            self.env.call_at(
                self.env._now + self.propagation + fold,
                self._sw_arrive, st.dst, packet,
            )
        elif self.propagation:
            self.env.call_later(self.propagation, self._arrive, st.dst, packet)
        else:
            self._arrive(st.dst, packet)

    def _arm(self, direction: str, st: "_DirState") -> None:
        """Arm the next service decision at ``bu``, ordered right behind
        the in-service packet's own heap entry.  The same-instant
        convention: the decision belongs to the service start that
        scheduled that entry, so an arrival scheduled after the start
        reaches the queue only after the decision."""
        st.armed = True
        st.resume = self.env.call_at_after(
            st.bu, st.inflight[2], self._lazy_resume_cb, direction, st
        )

    def _lazy_resume_cb(self, direction: str, st: "_DirState") -> None:
        """Make a dequeue decision now (the transmitter just went idle)."""
        # Only _judge_inflight cancels this entry, and it re-arms one
        # behind the new judgement, so reaching here means the wake-up
        # is current — no epoch guard needed.
        st.armed = False
        st.resume = None
        q = st.q
        if not q._total:
            return
        self._lazy_start(direction, st, q.dequeue(), self.env._now)
        if q._total:
            self._arm(direction, st)

    def _judge_inflight(self, direction: str, st: "_DirState") -> None:
        """Fault-triggered conversion: cancel the in-service packet's
        pre-scheduled arrival and judge it at its completion instant
        instead (:meth:`_judge` evaluates link state and wire loss
        there), moving any armed resume behind the judgement.  A no-op
        when nothing is serializing or the packet is judged already."""
        rec = st.inflight
        if rec is None or rec[0] <= self.env._now or rec[2][2] == self._judge:
            return
        t_done, packet, entry = rec
        env = self.env
        env.cancel(entry)
        entry = env.call_at(t_done, self._judge, direction, packet)
        st.inflight = (t_done, packet, entry)
        if st.armed:
            env.cancel(st.resume)
            self._arm(direction, st)

    def busy_seconds(self, from_node: str) -> float:
        """Seconds one direction has spent serializing, up to now.

        The raw ``busy_time`` tally credits a serialization eagerly, at
        its *start*; this subtracts the un-elapsed tail (up to ``bu``),
        so utilization math gets the exact elapsed-busy figure.
        """
        now = self.env.now
        st = self._dir[from_node]
        busy = st.bt
        tail = st.bu - now
        if tail > 0.0:
            busy -= tail
        return busy

    def utilization(self, from_node: str) -> float:
        """Busy fraction of one direction since t=0 (simulated).

        Transmissions in progress are pro-rated by elapsed time, so the
        result is bounded by 1.0 even when queried mid-serialization.
        """
        if self.env.now <= 0:
            return 0.0
        return self.busy_seconds(from_node) / self.env.now


class Node:
    """Base class for anything with network attachments."""

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        self.links: list[Link] = []
        self.network: Optional["Network"] = None
        # Resolved next-hop link per destination, flushed by
        # Network.invalidate_routes on any topology/link-state change.
        self._fwd: dict[str, Link] = {}

    def attach(self, link: Link) -> None:
        if self.network is not None:
            # A link wired directly against a registered node (rather
            # than through Network.link) still changes reachability for
            # the whole network: routes cached anywhere may now be
            # stale, so flush network-wide, not just this node.
            self.network.invalidate_routes()
        self.links.append(link)
        self._fwd.clear()

    def links_to(self, neighbor: str) -> list[Link]:
        """Every link to ``neighbor`` — parallel links included — with up
        links first, each group cheapest-first (ties broken by link
        name).  A pure function of the topology and link states, never
        of construction order."""
        out = [ln for ln in self.links if ln.other(self).name == neighbor]
        out.sort(key=lambda ln: (not ln.up, route_cost(ln), ln.name))
        return out

    def link_to(self, neighbor: str) -> Link:
        """The preferred link to ``neighbor``: the cheapest up link of the
        bundle, or — when every parallel member is down — the cheapest
        link outright (fault windows must still resolve a down link in
        order to restore it)."""
        links = self.links_to(neighbor)
        if not links:
            raise KeyError(f"{self.name} has no link to {neighbor}")
        return links[0]

    def forward(self, packet: Packet) -> None:
        """Send ``packet`` towards its destination via static routing.

        A packet caught on a partitioned network (no surviving route) is
        dropped and counted in ``Network.no_route_drops`` — the IP
        behaviour — rather than crashing the forwarding process.
        """
        dst = packet.dst
        link = self._fwd.get(dst)
        if link is None:
            assert self.network is not None, "node not registered with a Network"
            try:
                link = self.network.route_link(self.name, dst)
            except ValueError:
                self.network.no_route_drops += 1
                if self.network.probe is not None:
                    self.network.probe.on_no_route(self.name, dst)
                return
        link.send(self, packet)

    def receive(self, packet: Packet, link: Link) -> None:  # pragma: no cover
        raise NotImplementedError


class _SerialStage:
    """A single-server FIFO pipeline stage driven by scheduled callbacks.

    ``cost`` maps a packet to its service time, ``emit`` receives the
    packet when service completes.  One heap entry per packet, no
    get-events, no generator resumes.
    """

    __slots__ = ("env", "cost", "emit", "queue", "busy")

    def __init__(
        self,
        env: Environment,
        cost: Callable[["Packet"], float],
        emit: Callable[["Packet"], None],
    ):
        self.env = env
        self.cost = cost
        self.emit = emit
        self.queue: deque[Packet] = deque()
        self.busy = False

    # Shared entry-point name with _TandemStage, so Host.send/receive
    # are oblivious to which stage form the host was built with.
    def put_nowait(self, packet: "Packet") -> bool:
        if self.busy:
            self.queue.append(packet)
        else:
            self._start(packet)
        return True

    def _start(self, packet: "Packet") -> None:
        self.busy = True
        self.env.call_later(self.cost(packet), self._done, packet)

    def _done(self, packet: "Packet") -> None:
        self.emit(packet)
        if self.queue:
            self._start(self.queue.popleft())
        else:
            self.busy = False


class _TandemStage:
    """Two serial FIFO stages collapsed into one scheduled entry per packet.

    A pair of chained :class:`_SerialStage` machines (host stack CPU
    feeding the I/O bus, or vice versa) costs two heap entries per
    packet, but their completion instants are a pure Lindley recursion:
    ``c_k = max(a_k, c_{k-1}) + cost1`` (first stage),
    ``b_k = max(c_k, b_{k-1}) + cost2`` (second stage).  Computing the
    recursion inline at arrival and scheduling only the final
    completion ``b_k`` halves the entries while emitting at bit-identical
    times — each completion is one float add from its max base, exactly
    the chained machines' ``call_later`` arithmetic.  ``b_k`` strictly
    increases, so the completions wait on a FIFO :class:`~repro.sim.Lane`.
    """

    __slots__ = ("env", "cost1", "cost2", "emit", "_c_prev", "_b_prev", "_lane")

    def __init__(
        self,
        env: Environment,
        cost1: Callable[["Packet"], float],
        cost2: Callable[["Packet"], float],
        emit: Callable[["Packet"], None],
    ):
        self.env = env
        self.cost1 = cost1
        self.cost2 = cost2
        self.emit = emit
        self._c_prev = 0.0
        self._b_prev = 0.0
        self._lane = Lane(env)

    def put_nowait(self, packet: "Packet") -> bool:
        now = self.env._now
        c = (now if now > self._c_prev else self._c_prev) + self.cost1(packet)
        b = (c if c > self._b_prev else self._b_prev) + self.cost2(packet)
        self._c_prev = c
        self._b_prev = b
        self._lane.call_at(b, self.emit, packet)
        return True


class Host(Node):
    """An end host with a protocol stack and an I/O bus.

    Outbound packets pass (1) the send-side stack CPU, (2) the I/O bus,
    then the NIC/link.  Inbound packets pass the bus and the receive-side
    stack before delivery to the flow.  Each stage is a serial FIFO
    server, so stages pipeline across back-to-back packets — throughput
    is set by the slowest stage, as on real hosts.

    The stages are :class:`_SerialStage` callback machines (or, with
    both costs present, one :class:`_TandemStage`), and stages that
    cannot consume simulated time are elided at construction: a
    zero-cost stack (``cpu_per_packet == 0``) or an infinite I/O bus is a
    pure pass-through.  A host with *no* costly stage bypasses the
    pipeline entirely — ``send`` forwards and ``receive`` delivers
    inline, touching no queue at all.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        cpu_per_packet: float = 0.0,
        io_bus_rate: float = float("inf"),
    ):
        super().__init__(env, name)
        check_seconds("host cpu_per_packet", cpu_per_packet)
        check_rate("host io_bus_rate", io_bus_rate)
        self.cpu_per_packet = cpu_per_packet
        self.io_bus_rate = io_bus_rate
        self._sinks: dict[str, Callable[[Packet, float], None]] = {}
        has_cpu = cpu_per_packet > 0.0
        has_bus = io_bus_rate != float("inf")
        self._bypass = not has_cpu and not has_bus
        if self._bypass:
            # No stage can consume time: no queues at all.
            self._tx_entry = self._rx_entry = None
        elif has_cpu and has_bus:
            self._tx_entry = _TandemStage(
                env, self._cpu_cost, self._bus_cost, self._nic_out
            )
            self._rx_entry = _TandemStage(
                env, self._bus_cost, self._cpu_cost, self._deliver
            )
        elif has_cpu:
            self._tx_entry = _SerialStage(env, self._cpu_cost, self._nic_out)
            self._rx_entry = _SerialStage(env, self._cpu_cost, self._deliver)
        else:
            self._tx_entry = _SerialStage(env, self._bus_cost, self._nic_out)
            self._rx_entry = _SerialStage(env, self._bus_cost, self._deliver)

    # -- stage service costs -----------------------------------------------
    def _cpu_cost(self, packet: Packet) -> float:
        return self.cpu_per_packet

    def _bus_cost(self, packet: Packet) -> float:
        return packet.ip_bytes * 8 / self.io_bus_rate

    def _nic_out(self, packet: Packet) -> None:
        self.forward(packet)

    def _deliver(self, packet: Packet) -> None:
        sink = self._sinks.get(packet.flow)
        if sink is not None:
            sink(packet, self.env.now)
        # Delivery is the end of a packet's life: sinks read scalars and
        # return, so a pooled packet can rejoin the arena right away.
        if packet.pooled:
            packet_pool.release(packet)

    # -- API for flows -------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Inject a packet into the outbound stack."""
        packet.created = self.env.now
        if self._bypass:
            self.forward(packet)
        else:
            self._tx_entry.put_nowait(packet)

    def register_sink(self, flow: str, sink: Callable[[Packet, float], None]) -> None:
        """Deliver received packets of ``flow`` to ``sink(packet, time)``."""
        self._sinks[flow] = sink

    def receive(self, packet: Packet, link: Link) -> None:
        if packet.dst == self.name:
            if self._bypass:
                self._deliver(packet)
            else:
                self._rx_entry.put_nowait(packet)
        else:
            self.forward(packet)


class Switch(Node):
    """An output-buffered switch (ASX-4000-like): tiny per-packet latency,
    contention handled by the output links' transmit queues."""

    def __init__(self, env: Environment, name: str, latency: float = 10e-6):
        super().__init__(env, name)
        check_seconds("switch latency", latency)
        self.latency = latency

    def receive(self, packet: Packet, link: Link) -> None:
        # Scheduled-callback forwarding; a zero-latency switch forwards
        # inline with no heap entry.
        if self.latency:
            self.env.call_later(self.latency, self.forward, packet)
        else:
            self.forward(packet)


class Gateway(Node):
    """A HiPPI↔ATM IP gateway workstation (SGI O200, Sun Ultra 30, E5000).

    Store-and-forward with a serial per-packet forwarding cost (the
    gateway's IP stack): a single worker, so the gateway can itself become
    the bottleneck — as the real workstation gateways could.

    Waiting packets are held per flow and served round robin (a
    :class:`~repro.netsim.sched.DrrScheduler` with unit cost — every
    packet pays the same forwarding CPU), so one flow flooding the
    gateway cannot starve the others; with a single flow the service
    order is plain FIFO.  ``flow_forwarded`` / ``flow_drops`` tally the
    per-flow outcome.
    """

    def __init__(self, env: Environment, name: str, per_packet: float = 120e-6):
        super().__init__(env, name)
        check_seconds("gateway per_packet", per_packet)
        self.per_packet = per_packet
        #: Fluid background share of the forwarding worker (repro.fluid):
        #: the fraction of this serial CPU occupied by analytically-
        #: simulated flows.  Zero keeps forwarding bit-identical.
        self.background_share = 0.0
        self._eff_per_packet = per_packet
        self._queue = DrrScheduler()
        self.forwarded = 0
        self.up = True
        self.dropped = 0
        self.drop_reasons: dict[str, int] = {}
        self.flow_forwarded: dict[str, int] = {}
        self.flow_drops: dict[str, int] = {}
        self.probe: Optional[Any] = None
        self._busy = False

    def _drop(self, reason: str, count: int = 1, flow: Optional[str] = None) -> None:
        self.dropped += count
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + count
        if flow is not None:
            self.flow_drops[flow] = self.flow_drops.get(flow, 0) + count
        if self.probe is not None:
            self.probe.on_drop(self, reason, count, flow)

    def set_background_load(self, share: float) -> None:
        """Reserve ``share`` of the forwarding worker for fluid flows.

        The gateway-side seam of the hybrid engine: the serial
        forwarding CPU spends ``share`` of its cycles on analytically-
        simulated packets, so every packet-level forwarding now takes
        ``per_packet / (1 - share)``.  Zero restores the exact unloaded
        worker (packet-only runs stay bit-identical).
        """
        if not 0.0 <= share < 1.0:
            raise ValueError(
                f"background share must be in [0, 1), got {share}"
            )
        self.background_share = share
        self._eff_per_packet = self.per_packet / (1.0 - share)

    def crash(self) -> None:
        """Take the gateway down: flush and black-hole traffic until restart."""
        if not self.up:
            return
        self.up = False
        for flow, count in _count_by_flow(self._queue.clear()).items():
            self._drop("gateway_down", count, flow=flow)

    def restart(self) -> None:
        """Bring a crashed gateway back into service."""
        self.up = True

    def receive(self, packet: Packet, link: Link) -> None:
        if not self.up:
            self._drop("gateway_down", flow=packet.flow)
            return
        if self._busy:
            self._queue.put_nowait(packet)
        else:
            self._start_service(packet)

    def _forward_one(self, packet: Packet) -> None:
        self.forwarded += 1
        flow = packet.flow
        self.flow_forwarded[flow] = self.flow_forwarded.get(flow, 0) + 1
        self.forward(packet)

    # -- callback-driven serial forwarding ---------------------------------
    def _start_service(self, packet: Packet) -> None:
        self._busy = True
        if self.per_packet:
            self.env.call_later(self._eff_per_packet, self._service_done, packet)
        else:
            self._service_done(packet)

    def _service_done(self, packet: Packet) -> None:
        # A crash while this packet was in service black-holes it.
        if not self.up:
            self._drop("gateway_down", flow=packet.flow)
        else:
            self._forward_one(packet)
        waiting = self._queue
        if waiting._total:
            self._start_service(waiting.dequeue())
        else:
            self._busy = False


class Network:
    """The set of nodes plus static min-cost routing.

    Routes are deterministic min-cost paths (Dijkstra over
    :func:`route_cost` — propagation plus reference-datagram
    serialization) computed on demand and cached.  Ties are broken first
    by hop count, then by the lexicographically smallest node-name
    sequence, so the chosen route is a pure function of the topology and
    link states — never of construction order.  On topologies where every
    link prices equally (the property-test graphs) min-cost degenerates
    to min-hop, and on trees (the Figure-1 testbed) paths are unique
    anyway, so the metric only starts mattering on redundant multi-path
    topologies (:mod:`repro.netsim.topology`).

    Parallel links between a node pair (distinct explicit names) are
    first-class: routing picks the cheapest up member of the bundle, ties
    by link name.  Links that are administratively or fault-injected down
    are skipped, and any topology or link-state change invalidates the
    route cache plus every registered invalidation listener (e.g. the
    metampi transport model's WAN-cost cache).  A link-state change may
    instead be detected late: with ``reroute_delay`` > 0 the flush is
    scheduled that many seconds after the state change, modelling
    failure-detection latency — cached routes keep steering packets at a
    dead link (dropped as ``link_down``) until detection, after which
    affected flows fail over onto the surviving paths.  ``reroutes``
    counts resolutions where a (node, destination) pair's chosen link
    differs from the one it used before the flush.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.nodes: dict[str, Node] = {}
        self.links: dict[str, Link] = {}
        self.no_route_drops = 0
        self.probe: Optional[Any] = None
        #: Failure-detection latency (seconds) between a link state
        #: change and the route-cache flush that lets traffic re-resolve.
        #: Zero (the default) flushes synchronously — bit-identical to
        #: the historical immediate invalidation.
        self.reroute_delay = 0.0
        #: Count of (node, destination) route resolutions that picked a
        #: different link than before the last invalidation (failovers
        #: onto an alternate path, and reversions after repair).
        self.reroutes = 0
        self._routes: dict[tuple[str, str], str] = {}
        #: Last link each (node, dst) pair resolved to — survives
        #: invalidation on purpose: it is the memory that makes a
        #: re-resolution recognizable as a reroute.
        self._last_link: dict[tuple[str, str], Link] = {}
        self._invalidation_listeners: list[Callable[[], None]] = []

    def add(self, node: Node) -> Node:
        """Register a node (idempotent by name)."""
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        node.network = self
        self.invalidate_routes()
        return node

    def link(
        self,
        a: str,
        b: str,
        rate: float,
        propagation: float = 0.0,
        framing: Optional[Framing] = None,
        **kw,
    ) -> Link:
        """Create a link between two registered nodes.

        Parallel links between the same node pair are allowed when each
        carries an explicit, distinct ``name`` — routing treats every
        member of the bundle as its own edge and deterministically picks
        the cheapest up one (redundant dual-ring / bonded-trunk
        topologies).  An *unnamed* second link is still rejected in both
        orientations: the auto-generated name would collide or silently
        shadow the first in per-neighbour lookups and attribute traffic
        to the wrong link.
        """
        name = kw.get("name") or ""
        if not name and any(
            ln.other(self.nodes[a]).name == b for ln in self.nodes[a].links
        ):
            raise ValueError(f"duplicate link between {a!r} and {b!r}")
        # Validate the (explicit or auto-generated) name before the Link
        # is constructed: construction attaches to both nodes, so a
        # rejected link must never come into existence at all.
        if (name or f"{a}--{b}") in self.links:
            raise ValueError(f"duplicate link name {name or f'{a}--{b}'!r}")
        link = Link(
            self.env, self.nodes[a], self.nodes[b], rate, propagation, framing, **kw
        )
        link.network = self
        self.links[link.name] = link
        self.invalidate_routes()
        return link

    def neighbors(self, name: str, include_down: bool = False) -> list[str]:
        return [
            ln.other(self.nodes[name]).name
            for ln in self.nodes[name].links
            if include_down or ln.up
        ]

    def invalidate_routes(self) -> None:
        """Flush cached routes and notify listeners of a topology change."""
        self._routes.clear()
        for node in self.nodes.values():
            node._fwd.clear()
        for listener in self._invalidation_listeners:
            listener()

    def on_link_state_change(self) -> None:
        """Link up/down notification (from :meth:`Link.set_up`).

        With ``reroute_delay`` zero — the default — routes re-resolve
        immediately, bit-identical to the historical synchronous
        invalidation.  A positive delay models failure-detection latency:
        the flush is scheduled ``reroute_delay`` seconds out, and until
        it fires cached routes keep steering packets at the dead link
        (dropped there as ``link_down``).  Cache *misses* resolved during
        the window already avoid down links — only established routes
        are blind to the failure, which is exactly the detection-lag
        behaviour being modelled.
        """
        if self.reroute_delay <= 0.0:
            self.invalidate_routes()
        else:
            self.env.call_later(self.reroute_delay, self.invalidate_routes)

    def add_invalidation_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener()`` whenever topology or link state changes."""
        self._invalidation_listeners.append(listener)

    def next_hop(self, src: str, dst: str) -> str:
        """First hop node on the routed path from ``src`` to ``dst``."""
        key = (src, dst)
        hop = self._routes.get(key)
        if hop is None:
            self._resolve(src, dst)
            hop = self._routes[key]
        return hop

    def route_link(self, src: str, dst: str) -> Link:
        """The link ``src`` forwards on towards ``dst`` (parallel-link
        aware — the specific bundle member routing chose), resolved on
        demand and cached until the next invalidation."""
        node = self.nodes[src]
        link = node._fwd.get(dst)
        if link is None:
            self._resolve(src, dst)
            link = node._fwd[dst]
        return link

    def _resolve(self, src: str, dst: str) -> None:
        """Resolve the route ``src`` → ``dst`` and cache every hop.

        Suffix optimality of the search order (see :meth:`_search`) makes
        the per-hop entries exactly what each intermediate node would
        resolve for itself, so one resolution warms the whole path.  A
        hop whose chosen link differs from the one it used before the
        last invalidation is counted as a reroute (failover onto an
        alternate path, or reversion after repair).
        """
        path, links = self._search(src, dst)
        if not links:
            raise ValueError(f"no route from {src} to {dst}")
        for i, ln in enumerate(links):
            u = path[i]
            self._routes[(u, dst)] = path[i + 1]
            self.nodes[u]._fwd[dst] = ln
            pin = (u, dst)
            prev = self._last_link.get(pin)
            if prev is not ln:
                self._last_link[pin] = ln
                if prev is not None:
                    self.reroutes += 1
                    probe = self.probe
                    if probe is not None:
                        on_reroute = getattr(probe, "on_reroute", None)
                        if on_reroute is not None:
                            on_reroute(u, dst, prev, ln)

    def _best_links(self, node: Node) -> list[tuple[str, float, Link]]:
        """Per up-neighbour best edge as ``(neighbor, cost, link)`` rows,
        sorted by neighbour name.  Among parallel up links the cheapest
        wins, ties broken by link name — a pure function of the topology
        and link states, never of construction order."""
        best: dict[str, tuple[float, str, Link]] = {}
        for ln in node.links:
            if not ln.up:
                continue
            v = ln.other(node).name
            key = (route_cost(ln), ln.name, ln)
            cur = best.get(v)
            if cur is None or key[:2] < cur[:2]:
                best[v] = key
        return [(v, c, ln) for v, (c, _, ln) in sorted(best.items())]

    def _search(self, src: str, dst: str) -> tuple[list[str], list[Link]]:
        """Deterministic min-cost path search (Dijkstra).

        Heap entries order by ``(cost, hops, node-name path)``: among
        equal-cost alternatives the fewest-hop path wins, and among those
        the lexicographically smallest node sequence — a total order
        independent of insertion.  Suffixes of an optimal path are
        themselves optimal under this order (two optimal paths through
        the same prefix must share their suffix), which is what lets
        :meth:`_resolve` cache every hop of one search.

        Returns the node-name path and the specific links it uses;
        ``src == dst`` yields ``([src], [])``.  Raises ``ValueError``
        when no up path exists.
        """
        if src not in self.nodes or dst not in self.nodes:
            raise ValueError(f"no route from {src} to {dst}")
        if src == dst:
            return [src], []
        heap: list[tuple[float, int, tuple[str, ...]]] = [(0.0, 0, (src,))]
        hop_links: dict[tuple[str, ...], list[Link]] = {(src,): []}
        done: set[str] = set()
        while heap:
            cost, hops, path = heapq.heappop(heap)
            u = path[-1]
            used = hop_links.pop(path)
            if u in done:
                continue
            done.add(u)
            if u == dst:
                return list(path), used
            for v, c, ln in self._best_links(self.nodes[u]):
                if v in done:
                    continue
                child = path + (v,)
                if child not in hop_links:
                    heapq.heappush(heap, (cost + c, hops + 1, child))
                    hop_links[child] = used + [ln]
        raise ValueError(f"no route from {src} to {dst}")

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """The deterministic min-cost path from ``src`` to ``dst``."""
        return self._search(src, dst)[0]

    def path_links(self, src: str, dst: str) -> tuple[list[str], list[Link]]:
        """The routed path and the links it traverses, as parallel
        ``(nodes, links)`` lists (``len(links) == len(nodes) - 1``).
        Path-characterization code wants the exact links routing chose,
        not a by-neighbour-name guess that a parallel bundle would
        ambiguate."""
        return self._search(src, dst)

    def equal_cost_paths(
        self, src: str, dst: str, rel_tol: float = 1e-9
    ) -> list[list[str]]:
        """All loop-free paths whose cost is within ``rel_tol`` of the
        minimum — the alternate routes failover can land on.  Sorted by
        (hops, node sequence); the first entry is the path
        :meth:`shortest_path` chooses."""
        if src not in self.nodes or dst not in self.nodes:
            raise ValueError(f"no route from {src} to {dst}")
        if src == dst:
            return [[src]]
        d_src = self._dists(src)
        if dst not in d_src:
            raise ValueError(f"no route from {src} to {dst}")
        d_dst = self._dists(dst)
        best = d_src[dst]
        budget = best + best * rel_tol + 1e-15
        paths: list[list[str]] = []
        on_path = {src}
        acc = [src]

        def walk(u: str, spent: float) -> None:
            if u == dst:
                paths.append(list(acc))
                return
            for v, c, _ in self._best_links(self.nodes[u]):
                if v in on_path:
                    continue
                if spent + c + d_dst.get(v, float("inf")) <= budget:
                    on_path.add(v)
                    acc.append(v)
                    walk(v, spent + c)
                    acc.pop()
                    on_path.discard(v)

        walk(src, 0.0)
        paths.sort(key=lambda p: (len(p), p))
        return paths

    def _dists(self, root: str) -> dict[str, float]:
        """Single-source min costs over up links (plain Dijkstra)."""
        dist = {root: 0.0}
        heap = [(0.0, root)]
        done: set[str] = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, c, _ in self._best_links(self.nodes[u]):
                nd = d + c
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    def host(self, name: str) -> Host:
        """Fetch a registered node, asserting it is a Host."""
        node = self.nodes[name]
        if not isinstance(node, Host):
            raise TypeError(f"{name} is not a Host")
        return node
