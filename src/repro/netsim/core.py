"""Packet-level discrete-event network: hosts, switches, gateways, links.

The model is store-and-forward at packet granularity with per-link
framing overhead (ATM cell tax, HiPPI bursts), which reproduces the
throughput phenomena the paper reports without simulating every one of
the ~6 million cells/s an OC-48 carries.  Cell-exact behaviour is
available separately in :mod:`repro.netsim.cellsim` for validation.

Performance-relevant host effects of 1999 hardware are first-class:

* ``cpu_per_packet`` — protocol-stack traversal cost; with small MTUs this,
  not the wire, is the bottleneck (why the testbed used 64 KByte MTUs).
* ``io_bus_rate`` — host I/O bus ceiling (the microchannel of the IBM SP2
  nodes, which limited the WAN path to ~260 Mbit/s; paper Section 2).
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import Callable, Optional

from repro.netsim.atm import aal5_wire_bytes
from repro.netsim.hippi import hippi_wire_bytes
from repro.netsim.ip import LLC_SNAP_HEADER
from repro.netsim.sched import DrrScheduler
from repro.sim import Environment, Lane
from repro.util.units import check_rate, check_seconds

#: Reference datagram size (bytes) for the serialization term of the
#: routing cost metric (:func:`route_cost`) — a typical full Ethernet
#: frame.  The absolute value barely matters (propagation dominates on
#: WAN spans); what matters is that every process computes the identical
#: cost for the identical link.
ROUTE_COST_BYTES = 1500


def _sum_by(ledger: dict, field: int) -> dict:
    """A drop ledger's counts summed by one key field, first-seen order."""
    out: dict = {}
    for key, n in ledger.items():
        out[key[field]] = out.get(key[field], 0) + n
    return out


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


@dataclass(slots=True, eq=False)
class Packet:
    """One IP datagram in flight.

    ``ip_bytes`` includes IP/TCP headers; link framing (cells, bursts) is
    added per hop by the link's :class:`Framing`.  A plain slotted
    record, built fresh by each source and never reused, so a sink may
    keep a delivered packet.  ``acked`` is the cumulative byte count a
    :class:`~repro.netsim.flows.BulkTransfer` ACK carries.  Packets
    compare by identity (``eq=False``).
    """

    flow: str
    src: str
    dst: str
    ip_bytes: int
    payload_bytes: int
    kind: str = "data"
    seq: int = 0
    created: float = 0.0
    acked: int = 0


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

    Everything private to one direction of the transmitter lives on this
    slotted record, fetched once per operation.  A sent packet is counted
    once, per flow (``fb``/``fp``); the Link exposes the tallies through
    read-time dict views (``tx_bytes`` sums them, ``busy_time``, …) so
    tests and telemetry keep their per-direction-dict surface.

    The fold rule lives here alone: the arrival entry calls a plain
    :class:`Switch`'s ``forward``, with its latency as ``fold``, or any
    other node's ``receive`` (a ``Switch`` subclass included), with
    ``fold`` 0.0, which is exact because ``t + 0.0 == t``.
    """

    __slots__ = (
        "q",          # DrrScheduler
        "arrive",     # the far node's entry point: forward or receive
        "fold",       # far switch latency added to arrivals (0.0: none)
        "eff",        # effective serialization rate (background load)
        "ws",         # ip_bytes -> (wire_bytes, serialization_s) memo
        "bu",         # busy_until: end of the last committed serialization
        "inflight",   # the last start's live heap entry (packet: [3][-1])
        "armed",      # a resume entry is armed at bu
        "resume",     # the armed resume heap entry (for cancellation)
        "lossy",      # wire loss on: packets get a completion judgement
        "fb",         # per-flow wire bytes (Link.flow_tx_bytes view)
        "fp",         # per-flow packets (Link.flow_tx_packets view)
        "bt",         # serialization-busy seconds (Link.busy_time view)
    )

    def __init__(self, q: DrrScheduler, far: "Node", rate: float):
        self.q = q
        if type(far) is Switch:
            self.arrive = far.forward
            self.fold = far.latency
        else:
            self.arrive = far.receive
            self.fold = 0.0
        self.eff = rate
        self.ws: dict[int, tuple] = {}
        self.bu = 0.0
        self.inflight: Optional[list] = None
        self.armed = False
        self.resume: Optional[list] = None
        self.lossy = False
        self.fb: dict[str, int] = {}
        self.fp: dict[str, int] = {}
        self.bt = 0.0


class Link:
    """A full-duplex point-to-point link between two nodes.

    Each direction has its own transmit scheduler and transmitter
    process: serialization at ``rate`` (on framed wire bytes) followed by
    ``propagation`` seconds of flight.  ``queue_packets`` bounds the
    transmit queue (waiting packets across all flows); excess packets are
    dropped.

    Concurrent flows sharing a direction are served fairly, not
    FIFO-by-arrival: each flow gets its own queue inside a
    :class:`~repro.netsim.sched.DrrScheduler` and deficit round robin
    picks the next packet by framed wire bytes, so an aggressive bulk
    flow cannot starve a CBR video or ping stream the way a single
    shared FIFO lets it.  With one flow the service order degenerates to
    FIFO, leaving single-flow runs bit-identical to the pre-DRR link.

    Failure model (driven by :class:`repro.netsim.faults.FaultInjector`):

    * ``up`` — link state.  A down link refuses new packets at enqueue
      (``drops``), flushes its transmit queues, and loses any packet
      whose serialization completes while it is down (``lost``).  State
      changes (``state_changes``) invalidate the network's routes.
    * ``loss_rate`` — per-direction random wire loss probability, applied
      after serialization with a caller-supplied (seeded) RNG so runs are
      deterministic.  Lost packets are counted in ``lost``.

    Every packet death is counted once, in ``drop_ledger`` under its
    direction, typed reason and flow; ``drops``, ``lost``,
    ``drop_reasons`` and ``flow_drops`` are read-time views of it.
    Every sent packet is counted once too, per flow
    (``flow_tx_bytes``, ``flow_tx_packets``); ``tx_bytes`` and
    ``tx_packets`` sum them.  A packet's arrival entry calls the far
    node itself (see :class:`_DirState`).  The two ends must be
    distinct nodes.
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
        if a.name == b.name:
            raise ValueError(f"a link needs two distinct nodes, got {a.name!r} twice")
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
        self._rate = rate
        self.propagation = propagation
        self.framing = framing or PlainFraming()
        self.name = name or f"{a.name}--{b.name}"
        self.queue_packets = queue_packets
        self.up = True
        self.network: Optional["Network"] = None
        self.state_changes = 0
        #: memoized :func:`route_cost` (framing and propagation are fixed
        #: for the link's lifetime; setting ``rate`` clears it)
        self._route_cost: Optional[float] = None
        #: (direction, reason, flow) -> dead packets, first-seen order
        self.drop_ledger: dict[tuple[str, str, str], int] = {}
        self.loss_rate = {a.name: 0.0, b.name: 0.0}
        # One RNG per direction: each direction's loss pattern is a
        # function of its own packet sequence only, never of the
        # reverse direction's traffic volume.
        self._loss_rngs: dict[str, Optional[random.Random]] = {
            a.name: None,
            b.name: None,
        }
        #: Fluid background share per direction (fraction of ``rate``
        #: consumed by analytically-simulated flows; see repro.fluid).
        #: Zero keeps the transmitter bit-identical to the seamless link.
        self.background_share = {a.name: 0.0, b.name: 0.0}
        # -- per-direction transmitter state (see _lazy_start) -------------
        self._dir: dict[str, _DirState] = {}
        for me, far in ((a, b), (b, a)):
            self._dir[me.name] = _DirState(
                DrrScheduler(cost=self._wire_cost), far, rate
            )
        a.attach(self)
        b.attach(self)

    @property
    def rate(self) -> float:
        """Line rate in bit/s.  Setting it reprices the link everywhere:
        each direction's serialization rate (under its background share)
        and its memo, the memoized :func:`route_cost`, and the network's
        routes.  A packet already in service keeps its serialization."""
        return self._rate

    @rate.setter
    def rate(self, rate: float) -> None:
        check_rate("link rate", rate)
        self._rate = rate
        for d, st in self._dir.items():
            st.eff = rate * (1.0 - self.background_share[d])
            st.ws.clear()
        self._route_cost = None
        if self.network is not None:
            self.network.invalidate_routes()

    def other(self, node: "Node") -> "Node":
        """The peer of ``node`` on this link."""
        return self.b if node is self.a else self.a

    def _wire_cost(self, packet: Packet) -> int:
        """Framed wire bytes of ``packet`` — the DRR service cost."""
        return self.framing.wire(packet.ip_bytes)

    # -- public counter views ----------------------------------------------
    # Read-time views of the per-direction records and the drop ledger:
    # writes are per packet and reads are cold (sampling cadence), so
    # each dict is built on read, not maintained on write.

    @property
    def tx_bytes(self) -> dict[str, int]:
        """Transmitted wire bytes per direction (sum over flows)."""
        return {d: sum(st.fb.values()) for d, st in self._dir.items()}

    @property
    def tx_packets(self) -> dict[str, int]:
        """Transmitted packets per direction (sum over flows)."""
        return {d: sum(st.fp.values()) for d, st in self._dir.items()}

    @property
    def flow_tx_bytes(self) -> dict[str, dict[str, int]]:
        """Per-direction, per-flow transmitted wire bytes."""
        return {d: st.fb for d, st in self._dir.items()}

    @property
    def flow_tx_packets(self) -> dict[str, dict[str, int]]:
        """Per-direction, per-flow transmitted packets."""
        return {d: st.fp for d, st in self._dir.items()}

    def _deaths(self, *reasons: str) -> dict[str, int]:
        ledger = self.drop_ledger
        dead = {k: n for k, n in ledger.items() if k[1] in reasons}
        return {d: 0 for d in self._dir} | _sum_by(dead, 0)

    @property
    def drops(self) -> dict[str, int]:
        """Packets dropped before the wire, per direction."""
        return self._deaths("link_down", "queue_full")

    @property
    def lost(self) -> dict[str, int]:
        """Packets lost after serialization, per direction."""
        return self._deaths("tx_link_down", "wire_loss")

    @property
    def drop_reasons(self) -> dict[str, int]:
        """Packet deaths per typed reason, both directions."""
        return _sum_by(self.drop_ledger, 1)

    @property
    def flow_drops(self) -> dict[str, dict[str, int]]:
        """Per-direction, per-flow packet deaths."""
        ledger = self.drop_ledger
        return {
            d: _sum_by({k: n for k, n in ledger.items() if k[0] == d}, 2)
            for d in self._dir
        }

    @property
    def busy_time(self) -> dict[str, float]:
        """Serialization-busy seconds per direction (raw tally, credited
        at serialization start; :meth:`busy_seconds` gives the elapsed
        figure)."""
        return {d: st.bt for d, st in self._dir.items()}

    def set_flow_weight(self, flow: str, weight: float) -> None:
        """Scale ``flow``'s DRR share on both directions (default 1.0)."""
        for st in self._dir.values():
            st.q.set_weight(flow, weight)

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
        st.eff = self._rate * (1.0 - share)
        st.ws.clear()  # serialization memo was computed at the old rate

    def _drop(self, direction: str, reason: str, flow: str) -> None:
        """Count one dead packet of ``flow`` in the ledger."""
        key = (direction, reason, flow)
        self.drop_ledger[key] = self.drop_ledger.get(key, 0) + 1

    def send(self, from_node: "Node", packet: Packet) -> None:
        """Enqueue ``packet`` for transmission from ``from_node``."""
        direction = from_node.name
        if not self.up:
            self._drop(direction, "link_down", packet.flow)
            return
        st = self._dir[direction]
        now = self.env._now
        if st.bu <= now and not st.armed:
            # Idle transmitter: start serializing right now — no queue
            # residency, no DRR state touched.  An armed resume means
            # queued work, or a flushed queue whose service decision is
            # still due at this instant.
            self._lazy_start(direction, st, packet, now)
            return
        # The queue bound counts waiting packets only; the in-service
        # packet left the queue when its serialization began.
        q = st.q
        if q._total >= self.queue_packets:
            self._drop(direction, "queue_full", packet.flow)
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
            for d, st in self._dir.items():
                for packet in st.q.clear():
                    self._drop(d, "link_down", packet.flow)
        self.state_changes += 1
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
        then ``+ fold``), the same one an unfolded hop-by-hop chain would
        produce, so folding moves no timestamp.  Busy time is credited
        eagerly; :meth:`busy_seconds` subtracts the un-elapsed tail so
        pro-rated utilization stays exact.
        """
        ip = packet.ip_bytes
        ws = st.ws.get(ip)
        if ws is None:
            wire = self.framing.wire(ip)
            ws = st.ws[ip] = (wire, wire * 8 / st.eff)
        wire, s = ws
        flow = packet.flow
        per = st.fb
        per[flow] = per.get(flow, 0) + wire
        per = st.fp
        per[flow] = per.get(flow, 0) + 1
        t_done = now + s
        st.bt += s
        st.bu = t_done
        # No staleness check at arrival: an arrival invalidated by a
        # fault has its heap entry cancelled in place (Environment.cancel).
        # call_at's entry without its past check: s, propagation and fold
        # are checked >= 0 (not NaN) when set, so it cannot precede now.
        env = self.env
        env._eid = eid = env._eid + 1
        if st.lossy:
            entry = [t_done, eid, self._judge, (direction, packet)]
        else:
            entry = [t_done + self.propagation + st.fold, eid, st.arrive, (packet,)]
        heappush(env._queue, entry)
        st.inflight = entry

    def _judge(self, direction: str, packet: Packet) -> None:
        """Completion-time fate of a packet on a lossy or faulted
        direction: lost to a link that went down mid-serialization, lost
        to the wire-loss draw, or put on the wire."""
        if not self.up:
            self._drop(direction, "tx_link_down", packet.flow)
            return
        rate = self.loss_rate[direction]
        rng = self._loss_rngs[direction]
        if rate > 0.0 and rng is not None and rng.random() < rate:
            self._drop(direction, "wire_loss", packet.flow)
            return
        # On the wire: the one arrival entry a lossless direction would
        # have scheduled, built with the same float additions.  With no
        # propagation and no fold the hand-off is inline.
        st = self._dir[direction]
        if self.propagation or st.fold:
            self.env.call_at(
                self.env._now + self.propagation + st.fold, st.arrive, packet
            )
        else:
            st.arrive(packet)

    def _arm(self, direction: str, st: "_DirState") -> None:
        """Arm the next service decision at ``bu``, ordered right behind
        the in-service packet's own heap entry.  The same-instant
        convention: the decision belongs to the service start that
        scheduled that entry, so an arrival scheduled after the start
        reaches the queue only after the decision."""
        st.armed = True
        st.resume = self.env.call_at_after(
            st.bu, st.inflight, self._lazy_resume_cb, direction, st
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
        entry = st.inflight
        env = self.env
        if entry is None or st.bu <= env._now or entry[2] == self._judge:
            return
        packet = entry[3][-1]
        env.cancel(entry)
        st.inflight = env.call_at(st.bu, self._judge, direction, packet)
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
                return
        link.send(self, packet)

    def receive(self, packet: Packet) -> None:  # pragma: no cover
        raise NotImplementedError


class _SerialStage:
    """A single-server FIFO pipeline stage driven by scheduled callbacks.

    The stage is a host's stack CPU (``cpu`` seconds per packet) or, with
    ``cpu`` zero, its I/O bus (``ip_bytes * 8 / rate`` seconds); ``emit``
    receives the packet when service completes.  One heap entry per
    packet, no get-events, no generator resumes.
    """

    __slots__ = ("env", "cpu", "rate", "emit", "queue", "busy")

    def __init__(
        self,
        env: Environment,
        cpu: float,
        rate: float,
        emit: Callable[["Packet"], None],
    ):
        self.env = env
        self.cpu = cpu
        self.rate = rate
        self.emit = emit
        self.queue: deque[Packet] = deque()
        self.busy = False

    # Shared entry-point name with _TandemStage, so Host.send/receive
    # are oblivious to which stage form the host was built with.
    def put_nowait(self, packet: "Packet") -> None:
        if self.busy:
            self.queue.append(packet)
        else:
            self._start(packet)

    def _start(self, packet: "Packet") -> None:
        # call_later's entry without its past check (costs checked >= 0).
        self.busy = True
        env = self.env
        env._eid = eid = env._eid + 1
        d = self.cpu or packet.ip_bytes * 8 / self.rate
        heappush(env._queue, [env._now + d, eid, self._done, (packet,)])

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
    The stages are the stack CPU (``cpu`` seconds) and the I/O bus
    (``ip_bytes * 8 / rate``), the bus first on the receive side (``rx``).
    """

    __slots__ = ("env", "cpu", "rate", "emit", "rx", "_c_prev", "_b_prev", "_lane")

    def __init__(
        self,
        env: Environment,
        cpu: float,
        rate: float,
        emit: Callable[["Packet"], None],
        rx: bool = False,
    ):
        self.env = env
        self.cpu = cpu
        self.rate = rate
        self.emit = emit
        self.rx = rx
        self._c_prev = 0.0
        self._b_prev = 0.0
        self._lane = Lane(env)

    def put_nowait(self, packet: "Packet") -> None:
        now = self.env._now
        bus = packet.ip_bytes * 8 / self.rate
        cost1, cost2 = (bus, self.cpu) if self.rx else (self.cpu, bus)
        c = (now if now > self._c_prev else self._c_prev) + cost1
        b = (c if c > self._b_prev else self._b_prev) + cost2
        self._c_prev = c
        self._b_prev = b
        self._lane.call_at(b, self.emit, packet)


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
    inline, touching no queue at all.  A link's arrival entry calls
    ``receive`` directly, bound when the link was built.
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
        self._cpu_per_packet = cpu = cpu_per_packet
        self._io_bus_rate = rate = io_bus_rate
        self._sinks: dict[str, Callable[[Packet, float], None]] = {}
        has_cpu = cpu > 0.0
        has_bus = rate != float("inf")
        self._bypass = not has_cpu and not has_bus
        # Each direction's entry: its stage's put_nowait, or with no
        # costly stage the next step itself (no queues at all).
        if self._bypass:
            self._tx, self._rx = self.forward, self._deliver
        elif has_cpu and has_bus:
            self._tx = _TandemStage(env, cpu, rate, self.forward).put_nowait
            self._rx = _TandemStage(env, cpu, rate, self._deliver, rx=True).put_nowait
        else:
            self._tx = _SerialStage(env, cpu, rate, self.forward).put_nowait
            self._rx = _SerialStage(env, cpu, rate, self._deliver).put_nowait

    @property
    def cpu_per_packet(self) -> float:
        """Stack seconds per packet, read-only: the stages take it when built."""
        return self._cpu_per_packet

    @property
    def io_bus_rate(self) -> float:
        """I/O bus bit/s, read-only: the stages take it when built."""
        return self._io_bus_rate

    def _deliver(self, packet: Packet) -> None:
        sink = self._sinks.get(packet.flow)
        if sink is not None:
            sink(packet, self.env._now)

    # -- API for flows -------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Inject a packet into the outbound stack."""
        packet.created = self.env._now
        self._tx(packet)

    def register_sink(self, flow: str, sink: Callable[[Packet, float], None]) -> None:
        """Deliver received packets of ``flow`` to ``sink(packet, time)``."""
        self._sinks[flow] = sink

    def receive(self, packet: Packet) -> None:
        if packet.dst == self.name:
            self._rx(packet)
        else:
            self.forward(packet)


class Switch(Node):
    """An output-buffered switch (ASX-4000-like): tiny per-packet latency,
    contention handled by the output links' transmit queues."""

    def __init__(self, env: Environment, name: str, latency: float = 10e-6):
        super().__init__(env, name)
        check_seconds("switch latency", latency)
        self._latency = latency

    @property
    def latency(self) -> float:
        """Per-packet latency, fixed at construction: a link folds a
        plain switch's latency into its arrival instants when built."""
        return self._latency

    def receive(self, packet: Packet) -> None:
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
    order is plain FIFO.  ``flow_forwarded`` tallies per-flow forwards
    and ``forwarded`` sums it; ``dropped``, ``drop_reasons`` and
    ``flow_drops`` view ``drop_ledger``.
    """

    def __init__(self, env: Environment, name: str, per_packet: float = 120e-6):
        super().__init__(env, name)
        check_seconds("gateway per_packet", per_packet)
        self._per_packet = per_packet
        #: Fluid background share of the forwarding worker (repro.fluid):
        #: the fraction of this serial CPU occupied by analytically-
        #: simulated flows.  Zero keeps forwarding bit-identical.
        self.background_share = 0.0
        self._eff_per_packet = per_packet
        self._queue = DrrScheduler()
        self.up = True
        self.flow_forwarded: dict[str, int] = {}
        #: (reason, flow) -> dropped packets, first-seen order
        self.drop_ledger: dict[tuple[str, str], int] = {}
        self._busy = False

    @property
    def per_packet(self) -> float:
        """Forwarding seconds per packet, read-only: the loaded cost is
        derived from it (:meth:`set_background_load`)."""
        return self._per_packet

    def _drop(self, reason: str, flow: str) -> None:
        key = (reason, flow)
        self.drop_ledger[key] = self.drop_ledger.get(key, 0) + 1

    @property
    def forwarded(self) -> int:
        """Packets forwarded, all flows (sum of ``flow_forwarded``)."""
        return sum(self.flow_forwarded.values())

    @property
    def dropped(self) -> int:
        """Packets dropped, all reasons and flows."""
        return sum(self.drop_ledger.values())

    @property
    def drop_reasons(self) -> dict[str, int]:
        """Dropped packets per typed reason."""
        return _sum_by(self.drop_ledger, 0)

    @property
    def flow_drops(self) -> dict[str, int]:
        """Dropped packets per flow."""
        return _sum_by(self.drop_ledger, 1)

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
        self._eff_per_packet = self._per_packet / (1.0 - share)

    def crash(self) -> None:
        """Take the gateway down: flush and black-hole traffic until restart."""
        if not self.up:
            return
        self.up = False
        for packet in self._queue.clear():
            self._drop("gateway_down", packet.flow)

    def restart(self) -> None:
        """Bring a crashed gateway back into service."""
        self.up = True

    def receive(self, packet: Packet) -> None:
        if not self.up:
            self._drop("gateway_down", packet.flow)
            return
        if self._busy:
            self._queue.put_nowait(packet)
        else:
            self._start_service(packet)

    # -- callback-driven serial forwarding ---------------------------------
    def _start_service(self, packet: Packet) -> None:
        # call_later's entry without its past check (cost and share checked).
        self._busy = True
        d = self._eff_per_packet  # zero exactly when per_packet is
        if d:
            env = self.env
            env._eid = eid = env._eid + 1
            heappush(env._queue, [env._now + d, eid, self._service_done, (packet,)])
        else:
            self._service_done(packet)

    def _service_done(self, packet: Packet) -> None:
        # A crash while this packet was in service black-holes it.
        flow = packet.flow
        if not self.up:
            self._drop("gateway_down", flow)
        else:
            self.flow_forwarded[flow] = self.flow_forwarded.get(flow, 0) + 1
            self.forward(packet)
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
    affected flows fail over onto the surviving paths.  ``failovers``
    counts, per newly chosen link, the resolutions where a (node,
    destination) pair's link differs from the one it used before the
    flush.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.nodes: dict[str, Node] = {}
        self.links: dict[str, Link] = {}
        self.no_route_drops = 0
        #: Failure-detection latency (seconds) between a link state
        #: change and the route-cache flush that lets traffic re-resolve.
        #: Zero (the default) flushes synchronously — bit-identical to
        #: the historical immediate invalidation.
        self.reroute_delay = 0.0
        #: New link name -> (node, dst) resolutions that switched onto it
        #: (failovers onto an alternate path, and reversions after repair).
        self.failovers: dict[str, int] = {}
        #: Last link each (node, dst) pair resolved to — survives
        #: invalidation on purpose: it is the memory that makes a
        #: re-resolution recognizable as a reroute.
        self._last_link: dict[tuple[str, str], Link] = {}
        self._invalidation_listeners: list[Callable[[], None]] = []

    @property
    def reroutes(self) -> int:
        """Route resolutions onto a different link, over all links."""
        return sum(self.failovers.values())

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
        if src not in self.nodes:
            raise ValueError(f"no route from {src} to {dst}")
        return self.route_link(src, dst).other(self.nodes[src]).name

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
            self.nodes[u]._fwd[dst] = ln
            pin = (u, dst)
            prev = self._last_link.get(pin)
            if prev is not ln:
                self._last_link[pin] = ln
                if prev is not None:
                    self.failovers[ln.name] = self.failovers.get(ln.name, 0) + 1

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
