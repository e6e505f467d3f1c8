"""Burst invalidation: faults, DRR contention and weight changes mid-burst.

The hot path pre-schedules whole bursts: a CBR source emits one kernel
event per frame, and the lazy link transmitter pre-schedules each
packet's arrival at serialization start.  A fault, a competing flow or
a DRR weight change arriving mid-burst must cancel or re-decide exactly
the work the per-packet generator reference would.  These tests pin the
contract: every delivery tuple (endpoint, kind, seq, timestamp) and
summary figure is bit-identical between the fast path and the classic
generator/process slow path.
"""

import pytest

from repro.netsim import (
    BulkTransfer,
    CbrFlow,
    ClassicalIP,
    Host,
    Network,
    Switch,
    build_testbed,
)
from repro.netsim.faults import FaultInjector
from repro.netsim.ip import TESTBED_MTU
from repro.sim import Environment

VARIANTS = ("fast", "slow")

#: Mid-burst wire-loss window on the WAN: (probability, start, duration,
#: injector seed).  Both edges fall inside a serialization on the
#: GMD->Juelich direction, the opening one with packets queued behind it.
LOSS_WINDOW = (0.3, 6e-3, 8e-3, 5)

#: Mid-contention DRR weight change on the bottleneck: (instant, flow,
#: weight).  The instant is off every packet boundary of the scenario,
#: so the change never ties with a service decision.
WEIGHT_CHANGE = (0.0213, "video", 4.0)


def _record_deliveries(net, hosts):
    deliveries: list[tuple] = []
    for hname in hosts:
        host = net.host(hname)
        for flow, sink in list(host._sinks.items()):
            def wrapped(packet, t, _sink=sink, _h=hname):
                deliveries.append((_h, packet.kind, packet.seq, t))
                _sink(packet, t)

            host._sinks[flow] = wrapped
    return deliveries


def _run_fault_mid_burst(variant, fault="link_down"):
    """A CBR stream over the WAN with a fault window opening mid-stream:
    the link failing, or (``random_loss``) wire loss switched on and off
    again while a competing bulk shares the WAN direction."""
    tb = build_testbed(env=Environment(fast_path=variant == "fast"))
    ip = ClassicalIP(TESTBED_MTU)
    cbr = CbrFlow(
        tb.net,
        "sp2",
        "t3e-600",
        frame_bytes=128 * 1024,
        interval=2e-3,
        n_frames=30,
        ip=ip,
        name="video",
        drain_timeout=0.5,
    )
    hosts = ("sp2", "t3e-600")
    done = [cbr.done]
    edges: list[bool] = []
    if fault == "link_down":
        # Down for 8 ms starting a third of the way in: several
        # pre-scheduled frame bursts and in-service packets get chopped
        # mid-flight.
        FaultInjector(tb.net).link_down(tb.wan_link, at=0.02, duration=8e-3)
    else:
        # Loss opens mid-serialization, so the in-service packet's
        # arrival must turn into a completion-time judgement, and closes
        # with a judged packet still serializing.  A competing bulk
        # shares the direction, so packets queue behind the judgement.
        bulk = BulkTransfer(
            tb.net, "e500-gmd", "t3e-1200", 1024 * 1024, ip=ip, name="bulk"
        )
        p, start, duration, seed = LOSS_WINDOW
        FaultInjector(tb.net, seed=seed).random_loss(
            tb.wan_link, p, start=start, duration=duration
        )
        hosts += ("e500-gmd", "t3e-1200")
        done.append(bulk.done)
        st = tb.wan_link._dir["sw-gmd"]

        def edge():
            # Serializing: the reference marks tx_begin, the fast path
            # has busy_until ahead of now.
            edges.append(st.tx_begin is not None or st.bu > tb.env.now)

        tb.env.call_at(start, edge)
        tb.env.call_at(start + duration, edge)
    deliveries = _record_deliveries(tb.net, hosts)
    env = tb.net.env
    env.run(until=env.all_of(done))
    return {
        "deliveries": deliveries,
        "elapsed": env.now,
        "frames_received": cbr.frames_received,
        "frames_lost": cbr.frames_lost,
        "wire_loss": tb.wan_link.drop_reasons.get("wire_loss", 0),
        "edges_mid_serialization": edges,
    }


def _run_contention_mid_burst(variant):
    """A CBR stream sharing the WAN with a bulk transfer."""
    tb = build_testbed(env=Environment(fast_path=variant == "fast"))
    ip = ClassicalIP(TESTBED_MTU)
    cbr = CbrFlow(
        tb.net,
        "sp2",
        "t3e-600",
        frame_bytes=128 * 1024,
        interval=2e-3,
        n_frames=25,
        ip=ip,
        name="video",
        drain_timeout=0.5,
    )
    bulk = BulkTransfer(
        tb.net, "sp2", "t3e-600", 2 * 1024 * 1024, ip=ip, name="bulk"
    )
    deliveries = _record_deliveries(tb.net, ("sp2", "t3e-600"))
    env = tb.net.env
    env.run(until=env.all_of([cbr.done, bulk.done]))
    return {
        "deliveries": deliveries,
        "elapsed": env.now,
        "frames_received": cbr.frames_received,
        "goodput": bulk.throughput,
        "retransmits": bulk.retransmits,
    }


def _run_weight_change(variant, weight_change=None):
    """CBR video and a bulk transfer from two sources through one
    100 Mbit/s bottleneck, both backlogged there for most of the run;
    optionally re-weight one flow on the bottleneck mid-contention."""
    env = Environment(fast_path=variant == "fast")
    net = Network(env)
    for name in ("cam", "disk", "dst"):
        net.add(Host(env, name))
    net.add(Switch(env, "sw", latency=1e-6))
    net.link("cam", "sw", 1e9, 1e-6)
    net.link("disk", "sw", 1e9, 1e-6)
    bottleneck = net.link("sw", "dst", 100e6, 1e-4)
    cbr = CbrFlow(
        net, "cam", "dst", frame_bytes=32 * 1024, interval=4e-3,
        n_frames=20, name="video", drain_timeout=0.5,
    )
    bulk = BulkTransfer(net, "disk", "dst", 1024 * 1024, name="bulk")
    deliveries = _record_deliveries(net, ("cam", "disk", "dst"))
    if weight_change is not None:
        at, flow, weight = weight_change
        env.call_at(at, bottleneck.set_flow_weight, flow, weight)
    env.run(until=env.all_of([cbr.done, bulk.done]))
    return {
        "deliveries": deliveries,
        "elapsed": env.now,
        "frames_received": cbr.frames_received,
        "goodput": bulk.throughput,
        "tx_packets": bottleneck.tx_packets,
        "flow_tx_bytes": bottleneck.flow_tx_bytes,
    }


@pytest.fixture(scope="module")
def fault_runs():
    return {v: _run_fault_mid_burst(v) for v in VARIANTS}


@pytest.fixture(scope="module")
def loss_runs():
    return {v: _run_fault_mid_burst(v, "random_loss") for v in VARIANTS}


@pytest.fixture(scope="module")
def contention_runs():
    return {v: _run_contention_mid_burst(v) for v in VARIANTS}


@pytest.fixture(scope="module")
def weight_runs():
    return {v: _run_weight_change(v, WEIGHT_CHANGE) for v in VARIANTS}


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "fast"])
def test_fault_mid_burst_is_bit_identical(fault_runs, variant):
    assert fault_runs[variant] == fault_runs["fast"], (
        f"{variant} diverged from the fast path under a mid-burst fault"
    )


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "fast"])
def test_loss_window_mid_burst_is_bit_identical(loss_runs, variant):
    assert loss_runs[variant] == loss_runs["fast"], (
        f"{variant} diverged from the fast path across a mid-burst loss window"
    )


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "fast"])
def test_contention_mid_burst_is_bit_identical(contention_runs, variant):
    assert contention_runs[variant] == contention_runs["fast"], (
        f"{variant} diverged from the fast path under DRR contention"
    )


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "fast"])
def test_weight_change_mid_contention_is_bit_identical(weight_runs, variant):
    assert weight_runs[variant] == weight_runs["fast"], (
        f"{variant} diverged from the fast path after a mid-contention "
        "set_flow_weight"
    )


def test_fault_scenario_actually_loses_frames(fault_runs):
    """The fault window must actually bite (otherwise the identity
    assertions above prove nothing about invalidation)."""
    ref = fault_runs["fast"]
    assert ref["frames_lost"] > 0
    assert ref["frames_received"] > 0


def test_loss_window_actually_bites(loss_runs):
    """The window must open and close mid-serialization and lose
    packets, or the identity assertion above proves nothing about
    turning loss on and off mid-burst."""
    ref = loss_runs["fast"]
    assert ref["edges_mid_serialization"] == [True, True]
    assert ref["wire_loss"] > 0
    assert len(ref["deliveries"]) == 120


def test_contention_scenario_actually_contends(contention_runs):
    ref = contention_runs["fast"]
    assert ref["frames_received"] > 0
    assert ref["goodput"] > 0


def test_weight_change_actually_reorders(weight_runs):
    """The re-weighting must change the service order, or the identity
    assertion above proves nothing about set_flow_weight."""
    unweighted = _run_weight_change("fast")
    assert unweighted["frames_received"] == weight_runs["fast"]["frames_received"]
    assert unweighted["deliveries"] != weight_runs["fast"]["deliveries"]
