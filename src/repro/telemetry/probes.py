"""Probe installers: wire a registry into the simulators.

Each ``instrument_*`` function attaches a probe object to the target's
``probe`` attribute (every instrumentable class initializes it to
``None``) and registers callback gauges for state the simulators already
tally on their own (tx volume, utilization, queue depths) — those cost
nothing until someone reads or samples them.  Probe hooks fire only on
*rare* events (drops, retransmits, state changes, message posts); the
per-packet transmit path carries no probe call at all, and the remaining
hooks sit behind a single ``if self.probe is not None`` branch.  When
the registry is a :class:`~repro.telemetry.metrics.NullRegistry` the
installers return without touching anything — the regression tests
assert the hot paths stay callback-free and bit-identical in that case.

Metric families (→ the paper quantity each one watches is tabulated in
DESIGN.md):

* ``netsim.link.*`` — tx bytes/packets, drops by typed reason,
  utilization, queue depth, up/down, state transitions;
* ``netsim.gateway.*`` — forwarded packets, drops, queue depth;
* ``netsim.route.drops`` — packets dropped for lack of a route;
* ``netsim.flow.*`` — BulkTransfer retransmits (by kind), RTO timeouts,
  stalls, goodput; PingFlow lost echoes; CbrFlow late/lost frames;
* ``metampi.*`` — messages/bytes per rank pair split WAN vs. intra,
  transport retries and errors;
* ``fire.*`` — per-stage pipeline latency histograms, RT-client
  per-frame processing time.
"""

from __future__ import annotations

import threading
import time
from functools import partial

from repro.telemetry.metrics import MetricsRegistry

# Typed drop reasons (the label values emitted by the netsim hooks).
DROP_LINK_DOWN = "link_down"        #: refused at enqueue / flushed on down
DROP_QUEUE_FULL = "queue_full"      #: bounded transmit queue overflow
DROP_TX_LINK_DOWN = "tx_link_down"  #: serialization finished on a dead link
DROP_WIRE_LOSS = "wire_loss"        #: seeded random loss on the wire
DROP_GATEWAY_DOWN = "gateway_down"  #: crashed gateway black-holed it
DROP_NO_ROUTE = "no_route"          #: partitioned network, no path
DROP_LOST_ECHO = "lost_echo"        #: ping reply never came back
DROP_LATE_FRAME = "late_frame"      #: CBR frame missed its playout deadline
DROP_LOST_FRAME = "lost_frame"      #: CBR frame lost segments


# -- netsim ------------------------------------------------------------------

class LinkProbe:
    """Per-link hook target for rare events (drops, state changes).

    Volume metrics (tx bytes/packets, utilization, queue depth) are NOT
    hooked: the :class:`~repro.netsim.core.Link` already tallies them on
    its own, so :func:`instrument_network` exposes those as lazy callback
    gauges and the per-packet transmit path carries no probe call at all.
    """

    __slots__ = ("_registry", "_name", "state_changes", "_drops")

    def __init__(self, registry: MetricsRegistry, link):
        self._registry = registry
        self._name = link.name
        self.state_changes = registry.counter(
            "netsim.link.state_changes", link=link.name
        )
        self._drops: dict = {}

    def on_drop(
        self,
        link,
        direction: str,
        reason: str,
        count: int = 1,
        flow: str | None = None,
    ) -> None:
        key = (direction, reason)
        counter = self._drops.get(key)
        if counter is None:
            counter = self._drops[key] = self._registry.counter(
                "netsim.link.drops",
                link=self._name,
                direction=direction,
                reason=reason,
            )
        counter.inc(count)
        if flow is not None:
            fkey = (direction, reason, flow)
            fcounter = self._drops.get(fkey)
            if fcounter is None:
                fcounter = self._drops[fkey] = self._registry.counter(
                    "netsim.link.flow_drops",
                    link=self._name,
                    direction=direction,
                    reason=reason,
                    flow=flow,
                )
            fcounter.inc(count)

    def on_state(self, link, up: bool) -> None:
        self.state_changes.inc()


class GatewayProbe:
    """Hook target for one :class:`~repro.netsim.core.Gateway`.

    Forwarded-packet volume is read lazily from ``gateway.forwarded``
    (a callback gauge); only drops hook the simulation.
    """

    __slots__ = ("_registry", "_name", "_drops")

    def __init__(self, registry: MetricsRegistry, gateway):
        self._registry = registry
        self._name = gateway.name
        self._drops: dict = {}

    def on_drop(
        self, gateway, reason: str, count: int = 1, flow: str | None = None
    ) -> None:
        counter = self._drops.get(reason)
        if counter is None:
            counter = self._drops[reason] = self._registry.counter(
                "netsim.gateway.drops", gateway=self._name, reason=reason
            )
        counter.inc(count)
        if flow is not None:
            fkey = (reason, flow)
            fcounter = self._drops.get(fkey)
            if fcounter is None:
                fcounter = self._drops[fkey] = self._registry.counter(
                    "netsim.gateway.flow_drops",
                    gateway=self._name,
                    reason=reason,
                    flow=flow,
                )
            fcounter.inc(count)


class NetworkProbe:
    """Network-wide hook target (routing drops and failovers)."""

    __slots__ = ("_registry", "no_route", "reroutes", "_per_link")

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self.no_route = registry.counter("netsim.route.drops", reason=DROP_NO_ROUTE)
        self.reroutes = registry.counter("netsim.route.reroutes")
        self._per_link: dict = {}

    def on_no_route(self, node_name: str, dst: str) -> None:
        self.no_route.inc()

    def on_reroute(self, node_name: str, dst: str, old_link, new_link) -> None:
        """A (node, destination) pair re-resolved onto a different link —
        a failover onto an alternate path, or a reversion after repair.
        Labeled per new link so a dashboard shows where traffic landed."""
        self.reroutes.inc()
        counter = self._per_link.get(new_link.name)
        if counter is None:
            counter = self._per_link[new_link.name] = self._registry.counter(
                "netsim.route.failovers", link=new_link.name
            )
        counter.inc()


def instrument_network(net, registry: MetricsRegistry, flows=()):
    """Install probes on every link and gateway of ``net``.

    With a disabled (null) registry this is a no-op returning ``None`` —
    no probe attributes are set, no gauges registered, and the hot paths
    keep their single ``probe is None`` branch.

    ``flows`` names flows (``packet.flow`` strings) that additionally get
    per-flow lazy gauges on every link — transmitted bytes and queue
    depth per flow and direction — reading the per-flow tallies the DRR
    schedulers keep anyway; flow-labeled drop counters appear on demand
    via the probe hooks regardless.
    """
    from repro.netsim.core import Gateway  # local import: avoid cycles

    if not registry.enabled:
        return None
    net.probe = NetworkProbe(registry)
    for link in net.links.values():
        link.probe = LinkProbe(registry, link)
        for end in (link.a.name, link.b.name):
            # The sampler reads these every tick; the counters they
            # mirror are ints, which sample identically — skipping the
            # float() wrap keeps the per-tick cost down (direct reads
            # via Gauge.value still coerce in the property), and so does
            # reading the direction's own record rather than building
            # the link's {direction: value} view on every read.
            st = link._dir[end]
            registry.gauge(
                "netsim.link.tx_bytes", link=link.name, direction=end
            ).set_function(lambda st=st: st.txb)
            registry.gauge(
                "netsim.link.tx_packets", link=link.name, direction=end
            ).set_function(lambda st=st: st.txp)
            registry.gauge(
                "netsim.link.utilization", link=link.name, direction=end
            ).set_function(partial(link.utilization, end))
            registry.gauge(
                "netsim.link.queue_depth", link=link.name, direction=end
            ).set_function(partial(len, st.q))
            for flow in flows:
                registry.gauge(
                    "netsim.link.flow_tx_bytes",
                    link=link.name,
                    direction=end,
                    flow=flow,
                ).set_function(lambda fb=st.fb, f=flow: fb.get(f, 0))
                registry.gauge(
                    "netsim.link.flow_queue_depth",
                    link=link.name,
                    direction=end,
                    flow=flow,
                ).set_function(lambda q=st.q, f=flow: q.depth(f))
        registry.gauge("netsim.link.up", link=link.name).set_function(
            lambda l=link: 1.0 if l.up else 0.0
        )
    for node in net.nodes.values():
        if isinstance(node, Gateway):
            node.probe = GatewayProbe(registry, node)
            registry.gauge(
                "netsim.gateway.forwarded", gateway=node.name
            ).set_function(lambda g=node: g.forwarded)
            registry.gauge(
                "netsim.gateway.queue_depth", gateway=node.name
            ).set_function(lambda g=node: len(g._queue))
    return net.probe


class BulkFlowProbe:
    """Hook target for one :class:`~repro.netsim.flows.BulkTransfer`."""

    __slots__ = ("_registry", "_name", "timeouts", "stalls", "goodput", "_rexmit")

    def __init__(self, registry: MetricsRegistry, flow):
        self._registry = registry
        self._name = flow.name
        self.timeouts = registry.counter("netsim.flow.timeouts", flow=flow.name)
        self.stalls = registry.counter("netsim.flow.stalls", flow=flow.name)
        self.goodput = registry.gauge("netsim.flow.goodput_bps", flow=flow.name)
        self._rexmit: dict = {}

    def on_retransmit(self, flow, kind: str) -> None:
        counter = self._rexmit.get(kind)
        if counter is None:
            counter = self._rexmit[kind] = self._registry.counter(
                "netsim.flow.retransmits", flow=self._name, kind=kind
            )
        counter.inc()

    def on_timeout(self, flow) -> None:
        self.timeouts.inc()

    def on_stall(self, flow) -> None:
        self.stalls.inc()

    def on_complete(self, flow) -> None:
        self.goodput.set(flow.throughput)


class PingFlowProbe:
    """Hook target for one :class:`~repro.netsim.flows.PingFlow`."""

    __slots__ = ("lost", "rtt_mean")

    def __init__(self, registry: MetricsRegistry, flow):
        self.lost = registry.counter(
            "netsim.flow.drops", flow=flow.name, reason=DROP_LOST_ECHO
        )
        self.rtt_mean = registry.gauge("netsim.flow.rtt_mean", flow=flow.name)

    def on_done(self, flow) -> None:
        if flow.lost:
            self.lost.inc(flow.lost)
        self.rtt_mean.set(flow.rtt.mean)


class CbrFlowProbe:
    """Hook target for one :class:`~repro.netsim.flows.CbrFlow`."""

    __slots__ = ("late", "lost", "delivered_rate", "jitter")

    def __init__(self, registry: MetricsRegistry, flow):
        self.late = registry.counter(
            "netsim.flow.drops", flow=flow.name, reason=DROP_LATE_FRAME
        )
        self.lost = registry.counter(
            "netsim.flow.drops", flow=flow.name, reason=DROP_LOST_FRAME
        )
        self.delivered_rate = registry.gauge(
            "netsim.flow.delivered_bps", flow=flow.name
        )
        self.jitter = registry.gauge("netsim.flow.jitter", flow=flow.name)

    def on_done(self, flow) -> None:
        if flow.frames_late:
            self.late.inc(flow.frames_late)
        if flow.frames_lost:
            self.lost.inc(flow.frames_lost)
        self.delivered_rate.set(flow.delivered_rate)
        self.jitter.set(flow.jitter)


def instrument_flow(flow, registry: MetricsRegistry):
    """Attach the matching probe to a Bulk/Ping/Cbr flow (no-op when the
    registry is disabled)."""
    from repro.netsim.flows import BulkTransfer, CbrFlow, PingFlow

    if not registry.enabled:
        return None
    if isinstance(flow, BulkTransfer):
        flow.probe = BulkFlowProbe(registry, flow)
    elif isinstance(flow, PingFlow):
        flow.probe = PingFlowProbe(registry, flow)
    elif isinstance(flow, CbrFlow):
        flow.probe = CbrFlowProbe(registry, flow)
    else:
        raise TypeError(f"don't know how to instrument {type(flow).__name__}")
    return flow.probe


# -- metampi -----------------------------------------------------------------

class MetampiProbe:
    """Hook target shared by the runtime and its transport model.

    Rank threads call concurrently, so series creation and increments
    are guarded by one lock (uncontended in practice: the transport's
    channel bookkeeping already serializes nearby).
    """

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self._lock = threading.Lock()
        self._pairs: dict = {}
        self._coll: dict = {}
        self._retries: dict = {}
        self.errors = registry.counter("metampi.transport.errors")

    def on_message(
        self,
        src_rank: int,
        dst_rank: int,
        nbytes: int,
        scope: str,
        collective: str = "p2p",
    ) -> None:
        key = (src_rank, dst_rank, scope)
        with self._lock:
            pair = self._pairs.get(key)
            if pair is None:
                labels = dict(src=str(src_rank), dst=str(dst_rank), scope=scope)
                pair = self._pairs[key] = (
                    self._registry.counter("metampi.messages", **labels),
                    self._registry.counter("metampi.bytes", **labels),
                )
            pair[0].inc()
            pair[1].inc(nbytes)
            # Per-strategy traffic: which collective family is putting
            # how many bytes over the WAN (vs. the internal fabrics).
            coll = self._coll.get((collective, scope))
            if coll is None:
                labels = dict(collective=collective, scope=scope)
                coll = self._coll[(collective, scope)] = (
                    self._registry.counter(
                        "metampi.collective.messages", **labels
                    ),
                    self._registry.counter("metampi.collective.bytes", **labels),
                )
            coll[0].inc()
            coll[1].inc(nbytes)

    def on_retry(self, src_host: str, dst_host: str) -> None:
        key = (src_host, dst_host)
        with self._lock:
            counter = self._retries.get(key)
            if counter is None:
                counter = self._retries[key] = self._registry.counter(
                    "metampi.transport.retries", src=src_host, dst=dst_host
                )
            counter.inc()

    def on_transport_error(self, src_host: str, dst_host: str) -> None:
        with self._lock:
            self.errors.inc()


def instrument_runtime(target, registry: MetricsRegistry):
    """Instrument a :class:`~repro.metampi.launcher.MetaMPI` (or a bare
    :class:`~repro.metampi.runtime.Runtime`): per-rank-pair traffic on
    the runtime, retry/error accounting on the transport model."""
    runtime = getattr(target, "runtime", target)
    if not registry.enabled:
        return None
    probe = MetampiProbe(registry)
    runtime.probe = probe
    runtime.transport.probe = probe
    return probe


# -- fire --------------------------------------------------------------------

FIRE_STAGES = ("server_to_t3e", "t3e", "t3e_to_display", "total")


class FirePipelineProbe:
    """Per-stage latency histograms for the Figure-2 pipeline."""

    __slots__ = ("stages", "images")

    def __init__(self, registry: MetricsRegistry):
        self.stages = {
            s: registry.histogram("fire.stage.seconds", stage=s)
            for s in FIRE_STAGES
        }
        self.images = registry.counter("fire.images")

    def observe_record(self, record) -> None:
        self.stages["server_to_t3e"].observe(record.t3e_start - record.server_time)
        self.stages["t3e"].observe(record.t3e_end - record.t3e_start)
        self.stages["t3e_to_display"].observe(
            record.display_time - record.t3e_end
        )
        self.stages["total"].observe(record.total_delay)
        self.images.inc()


def instrument_pipeline(pipeline, registry: MetricsRegistry):
    """Attach stage-latency histograms to a
    :class:`~repro.fire.pipeline.FirePipeline`."""
    if not registry.enabled:
        return None
    pipeline.probe = FirePipelineProbe(registry)
    return pipeline.probe


class RTClientProbe:
    """Wall-clock per-frame processing cost of the realtime chain."""

    __slots__ = ("frame_seconds", "frames", "active_voxels", "clock")

    def __init__(self, registry: MetricsRegistry):
        self.frame_seconds = registry.histogram("fire.rt.frame_seconds")
        self.frames = registry.counter("fire.rt.frames")
        self.active_voxels = registry.gauge("fire.rt.active_voxels")
        self.clock = time.perf_counter

    def on_frame(self, seconds: float, active_voxels: int) -> None:
        self.frame_seconds.observe(seconds)
        self.frames.inc()
        self.active_voxels.set(active_voxels)


def instrument_rt_client(client, registry: MetricsRegistry):
    """Attach a per-frame probe to a :class:`~repro.fire.rt.RTClient`."""
    if not registry.enabled:
        return None
    client.probe = RTClientProbe(registry)
    return client.probe


# -- repro.fluid -------------------------------------------------------------

class FluidProbe:
    """Hook target for a :class:`~repro.fluid.engine.FluidEngine`.

    Arrival/completion/re-solve are already *rare* events at fluid
    granularity (thousands per run, not millions), so unlike the packet
    probes every hook can afford real work: the FCT histogram is
    observed per completion, the gauges track the live engine state.
    """

    __slots__ = ("arrivals", "completions", "resolves", "fct", "active", "rate")

    def __init__(self, registry: MetricsRegistry):
        self.arrivals = registry.counter("fluid.flows.arrived")
        self.completions = registry.counter("fluid.flows.completed")
        self.resolves = registry.counter("fluid.resolves")
        self.fct = registry.histogram("fluid.fct_seconds")
        self.active = registry.gauge("fluid.flows.active")
        self.rate = registry.gauge("fluid.completed.mean_rate_bps")

    def on_arrival(self, engine, name: str) -> None:
        self.arrivals.inc()
        self.active.set(engine.active)

    def on_complete(self, engine, done) -> None:
        self.completions.inc()
        self.fct.observe(done.fct)
        self.rate.set(done.mean_rate)
        self.active.set(engine.active)

    def on_resolve(self, engine) -> None:
        self.resolves.inc()


def instrument_fluid(engine, registry: MetricsRegistry):
    """Attach a :class:`FluidProbe` to a fluid engine (no-op when the
    registry is disabled — the engine's hooks stay single-branch)."""
    if not registry.enabled:
        return None
    engine.probe = FluidProbe(registry)
    return engine.probe

