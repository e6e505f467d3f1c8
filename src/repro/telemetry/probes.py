"""Installers: expose the simulators' own tallies as registry series.

Each ``instrument_*`` function registers series that read state the
simulators keep anyway: callback gauges for volumes and levels (tx
bytes, utilization, queue depths), callback counters for scalar tallies
(timeouts, link state changes, no-route drops), and counter families
bound with :meth:`~repro.telemetry.metrics.MetricsRegistry.bind_counters`
to tally dicts (the per-link and per-gateway drop ledgers, retransmits
per kind, failovers per link, transport retries per host pair).  None of
them costs anything until someone reads or samples it, and netsim keeps
no telemetry attribute or branch at all, so telemetry cannot disagree
with the simulator.  Event hooks remain only where a series needs the
event's own value: the metampi per-rank-pair message split, the fluid
FCT histogram, the FIRE stage delays and the RT-client frame times.
When the registry is a :class:`~repro.telemetry.metrics.NullRegistry`
the installers return without touching anything.

Metric families (→ the paper quantity each one watches is tabulated in
DESIGN.md):

* ``netsim.link.*`` — tx bytes/packets, drops by typed reason,
  utilization, queue depth, up/down, state transitions;
* ``netsim.gateway.*`` — forwarded packets, drops, queue depth;
* ``netsim.route.*`` — packets dropped for lack of a route, reroutes,
  failovers per new link;
* ``netsim.flow.*`` — BulkTransfer retransmits (by kind), RTO timeouts,
  stalls, goodput; PingFlow lost echoes; CbrFlow late/lost frames;
* ``metampi.*`` — messages/bytes per rank pair split WAN vs. intra,
  transport retries and errors;
* ``fire.*`` — per-stage pipeline latency histograms, RT-client
  per-frame processing time;
* ``fluid.*`` — arrivals, completions, re-solves, FCT histogram.
"""

from __future__ import annotations

import threading
import time
from functools import partial

from repro.telemetry.metrics import MetricsRegistry

# Typed drop reasons (the label values of the drop series).
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

def _count(obj, attr: str):
    """A series callback: ``obj.attr`` (an int tally or level) as a float."""
    return lambda: float(getattr(obj, attr))


def _result(done):
    """A gauge callback: the value ``done`` succeeded with, 0 before."""
    return lambda: done.value if done.ok else 0.0


def instrument_network(net, registry: MetricsRegistry, flows=()) -> None:
    """Register series for every link and gateway of ``net``.

    With a disabled (null) registry this is a no-op: nothing is
    registered.

    ``flows`` names flows (``packet.flow`` strings) that additionally get
    per-flow lazy gauges on every link — transmitted bytes and queue
    depth per flow and direction — reading the per-flow tallies the DRR
    schedulers keep anyway; flow-labeled drop counters appear for every
    flow that loses a packet, regardless.
    """
    from repro.netsim.core import Gateway  # local import: avoid cycles

    if not registry.enabled:
        return
    registry.counter("netsim.route.drops", reason=DROP_NO_ROUTE).set_function(
        _count(net, "no_route_drops")
    )
    registry.counter("netsim.route.reroutes").set_function(_count(net, "reroutes"))
    registry.bind_counters(
        net.failovers, lambda link: [("netsim.route.failovers", {"link": link})]
    )
    for link in net.links.values():
        registry.counter("netsim.link.state_changes", link=link.name).set_function(
            _count(link, "state_changes")
        )
        registry.bind_counters(
            link.drop_ledger,
            lambda key, name=link.name: [
                (
                    "netsim.link.drops",
                    dict(link=name, direction=key[0], reason=key[1]),
                ),
                (
                    "netsim.link.flow_drops",
                    dict(link=name, direction=key[0], reason=key[1], flow=key[2]),
                ),
            ],
        )
        for end in (link.a.name, link.b.name):
            # The sampler reads these every tick; the per-flow tallies
            # they sum are ints, so the sums are exact and sample
            # identically — skipping the float() wrap keeps the per-tick
            # cost down (direct reads via Gauge.value still coerce in
            # the property), and so does summing the direction's own
            # record rather than building the link's {direction: value}
            # view on every read.
            st = link._dir[end]
            registry.gauge(
                "netsim.link.tx_bytes", link=link.name, direction=end
            ).set_function(lambda fb=st.fb: sum(fb.values()))
            registry.gauge(
                "netsim.link.tx_packets", link=link.name, direction=end
            ).set_function(lambda fp=st.fp: sum(fp.values()))
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
            registry.bind_counters(
                node.drop_ledger,
                lambda key, name=node.name: [
                    ("netsim.gateway.drops", dict(gateway=name, reason=key[0])),
                    (
                        "netsim.gateway.flow_drops",
                        dict(gateway=name, reason=key[0], flow=key[1]),
                    ),
                ],
            )
            registry.gauge(
                "netsim.gateway.forwarded", gateway=node.name
            ).set_function(lambda ff=node.flow_forwarded: sum(ff.values()))
            registry.gauge(
                "netsim.gateway.queue_depth", gateway=node.name
            ).set_function(lambda g=node: len(g._queue))


def instrument_flow(flow, registry: MetricsRegistry) -> None:
    """Register the series of a Bulk/Ping/Cbr flow (no-op when the
    registry is disabled).  A flow's result gauges read 0 until the
    flow is done."""
    from repro.netsim.flows import BulkTransfer, CbrFlow, PingFlow

    if not registry.enabled:
        return
    name = flow.name
    if isinstance(flow, BulkTransfer):
        registry.counter("netsim.flow.timeouts", flow=name).set_function(
            _count(flow, "timeouts")
        )
        registry.counter("netsim.flow.stalls", flow=name).set_function(
            _count(flow, "stalls")
        )
        registry.gauge("netsim.flow.goodput_bps", flow=name).set_function(
            _result(flow.done)
        )
        registry.bind_counters(
            flow.retransmit_kinds,
            lambda kind: [("netsim.flow.retransmits", {"flow": name, "kind": kind})],
        )
    elif isinstance(flow, PingFlow):
        registry.counter(
            "netsim.flow.drops", flow=name, reason=DROP_LOST_ECHO
        ).set_function(_count(flow, "lost"))
        registry.gauge("netsim.flow.rtt_mean", flow=name).set_function(
            _result(flow.done)
        )
    elif isinstance(flow, CbrFlow):
        registry.counter(
            "netsim.flow.drops", flow=name, reason=DROP_LATE_FRAME
        ).set_function(_count(flow, "frames_late"))
        registry.counter(
            "netsim.flow.drops", flow=name, reason=DROP_LOST_FRAME
        ).set_function(_count(flow, "frames_lost"))
        done = flow.done
        registry.gauge("netsim.flow.delivered_bps", flow=name).set_function(
            lambda: flow.delivered_rate if done.ok else 0.0
        )
        registry.gauge("netsim.flow.jitter", flow=name).set_function(
            lambda: flow.jitter if done.ok else 0.0
        )
    else:
        raise TypeError(f"don't know how to instrument {type(flow).__name__}")


# -- metampi -----------------------------------------------------------------

class MetampiProbe:
    """The runtime's message hook: per-rank-pair and per-collective
    traffic, split WAN vs. intra (no simulator tally keeps that split).

    Rank threads call concurrently, so series creation and increments
    are guarded by one lock (uncontended in practice: the transport's
    channel bookkeeping already serializes nearby).
    """

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self._lock = threading.Lock()
        self._pairs: dict = {}
        self._coll: dict = {}

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


def instrument_runtime(target, registry: MetricsRegistry):
    """Instrument a :class:`~repro.metampi.launcher.MetaMPI` (or a bare
    :class:`~repro.metampi.runtime.Runtime`): per-rank-pair traffic on
    the runtime, the transport model's retry and error tallies."""
    runtime = getattr(target, "runtime", target)
    if not registry.enabled:
        return None
    transport = runtime.transport
    registry.counter("metampi.transport.errors").set_function(
        _count(transport, "errors")
    )
    registry.bind_counters(
        transport.retries,
        lambda pair: [("metampi.transport.retries", {"src": pair[0], "dst": pair[1]})],
    )
    probe = runtime.probe = MetampiProbe(registry)
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

def instrument_fluid(engine, registry: MetricsRegistry) -> None:
    """Register a fluid engine's series (no-op when the registry is
    disabled).  Counts and levels read the engine's own tallies; its
    completion hook feeds the FCT histogram."""
    if not registry.enabled:
        return
    registry.counter("fluid.flows.arrived").set_function(_count(engine, "arrived"))
    registry.counter("fluid.flows.completed").set_function(
        lambda: float(len(engine.completed))
    )
    registry.counter("fluid.resolves").set_function(_count(engine, "resolves"))
    fct = registry.histogram("fluid.fct_seconds")
    registry.gauge("fluid.flows.active").set_function(_count(engine, "active"))
    registry.gauge("fluid.completed.mean_rate_bps").set_function(
        lambda: engine.completed[-1].mean_rate if engine.completed else 0.0
    )
    engine.on_complete = lambda done: fct.observe(done.fct)
