"""Fast path vs. slow path equivalence, and allocation regressions.

``Environment(fast_path=False)`` forces the classic event-per-hop
machinery (transmitter/worker processes, Store round trips); the default
fast path replaces those with scheduled callbacks and inline completion.
The contract is that the two differ only in kernel work, never in
simulated behaviour: identical delivery order, identical timestamps,
identical flow metrics.
"""

import random

import pytest

from repro.harness.runner import SweepRunner
from repro.harness.sweeps import demo_specs
from repro.netsim import BulkTransfer, CbrFlow, ClassicalIP, Host, build_testbed
from repro.netsim.core import Packet
from repro.netsim.ip import TESTBED_MTU
from repro.sim import Environment, Event, Store

MB = 1024 * 1024


def _run_bulk(fast_path: bool, nbytes: int = 2 * MB):
    """A WAN bulk transfer with every flow delivery recorded in order."""
    tb = build_testbed(env=Environment(fast_path=fast_path))
    bt = BulkTransfer(
        tb.net, "sp2", "t3e-600", nbytes, ip=ClassicalIP(TESTBED_MTU)
    )
    deliveries: list[tuple] = []
    for hname in ("sp2", "t3e-600"):
        host = tb.net.host(hname)
        for flow, sink in list(host._sinks.items()):
            def wrapped(packet, t, _sink=sink, _h=hname):
                deliveries.append((_h, packet.kind, packet.seq, t))
                _sink(packet, t)

            host._sinks[flow] = wrapped
    goodput = bt.run()
    return {
        "deliveries": deliveries,
        "goodput": goodput,
        "elapsed": tb.env.now,
        "retransmits": bt.retransmits,
        "timeouts": bt.timeouts,
        "scheduled": tb.env.scheduled_count,
    }


def test_fast_and_slow_paths_deliver_identically():
    fast = _run_bulk(fast_path=True)
    slow = _run_bulk(fast_path=False)
    # Same packets, same order, same (exact) timestamps end to end.
    assert fast["deliveries"] == slow["deliveries"]
    assert fast["goodput"] == slow["goodput"]
    assert fast["elapsed"] == slow["elapsed"]
    assert fast["retransmits"] == slow["retransmits"]
    assert fast["timeouts"] == slow["timeouts"]
    # ... and the fast path got there with far less kernel work.
    assert fast["scheduled"] < slow["scheduled"]


def test_fast_path_is_run_to_run_deterministic():
    a = _run_bulk(fast_path=True)
    b = _run_bulk(fast_path=True)
    assert a == b


#: Contended inputs: the competing bulks' (src, dst) pairs, and whether
#: a CBR stream joins them.
CONTENDED = {
    # Two bulks into the shared ATM gateway attachment, plus CBR video.
    "gateway": ((("t3e-600", "e500-gmd"), ("t3e-1200", "e500-gmd")), True),
    # Three reverse WAN bulks sharing the WAN's GMD->Juelich direction,
    # so their packets meet at the WAN transmitter at the same instants.
    "wan_reverse": (
        (("sp2", "t3e-600"), ("e500-gmd", "t3e-1200"), ("onyx2-gmd", "t90")),
        False,
    ),
}


def _run_contended(
    fast_path: bool,
    nbytes: int = MB,
    scenario: str = "gateway",
    loss: float = 0.0,
):
    """Competing bulk transfers (plus a CBR stream, per ``scenario``),
    every delivery at every endpoint recorded.  ``loss`` > 0 puts seeded
    wire loss on both WAN directions."""
    tb = build_testbed(env=Environment(fast_path=fast_path))
    if loss:
        tb.wan_link.set_loss(loss, tb.SW_JUELICH, random.Random(11))
        tb.wan_link.set_loss(loss, tb.SW_GMD, random.Random(12))
    ip = ClassicalIP(TESTBED_MTU)
    pairs, with_cbr = CONTENDED[scenario]
    bulks = [
        BulkTransfer(tb.net, src, dst, nbytes, ip=ip, name=f"bulk-{src}")
        for src, dst in pairs
    ]
    endpoints = [host for pair in pairs for host in pair]
    cbr = None
    if with_cbr:
        cbr = CbrFlow(
            tb.net,
            "onyx2-juelich",
            "onyx2-gmd",
            frame_bytes=1_350_000,
            interval=0.04,
            n_frames=5,
            ip=ip,
            name="cbr",
        )
        endpoints += ["onyx2-juelich", "onyx2-gmd"]
    deliveries: list[tuple] = []
    for hname in dict.fromkeys(endpoints):
        host = tb.net.host(hname)
        for flow, sink in list(host._sinks.items()):
            def wrapped(packet, t, _sink=sink, _h=hname):
                deliveries.append((_h, packet.flow, packet.kind, packet.seq, t))
                _sink(packet, t)

            host._sinks[flow] = wrapped
    for bt in bulks:
        tb.net.env.run(until=bt.done)
    if cbr is not None:
        tb.net.env.run(until=cbr.done)
    wan = tb.wan_link
    return {
        "deliveries": deliveries,
        "goodputs": {bt.name: bt.throughput for bt in bulks},
        "retransmits": {bt.name: bt.retransmits for bt in bulks},
        "cbr_frames": cbr.frames_received if cbr is not None else None,
        "elapsed": tb.env.now,
        "flow_tx": {d: dict(wan.flow_tx_bytes[d]) for d in wan.flow_tx_bytes},
        "scheduled": tb.env.scheduled_count,
    }


def test_contended_fast_and_slow_paths_identical():
    """DRR arbitration must not break the two-forms contract: with
    competing bulks plus a CBR stream on one bottleneck, both paths see
    the same packets, order, timestamps, and per-flow accounting."""
    fast = _run_contended(fast_path=True)
    slow = _run_contended(fast_path=False)
    assert fast["deliveries"] == slow["deliveries"]
    assert fast["goodputs"] == slow["goodputs"]
    assert fast["retransmits"] == slow["retransmits"]
    assert fast["cbr_frames"] == slow["cbr_frames"]
    assert fast["elapsed"] == slow["elapsed"]
    assert fast["flow_tx"] == slow["flow_tx"]
    assert fast["scheduled"] < slow["scheduled"]


def test_lossy_contended_fast_and_slow_paths_identical():
    """Wire loss on both WAN directions: a packet that survives its
    completion judgement gets one arrival entry, and the run still
    matches the reference."""
    fast = _run_contended(fast_path=True, loss=0.01)
    slow = _run_contended(fast_path=False, loss=0.01)
    assert fast["deliveries"] == slow["deliveries"]
    assert fast["goodputs"] == slow["goodputs"]
    assert fast["retransmits"] == slow["retransmits"]
    assert sum(fast["retransmits"].values()) == 1
    assert fast["elapsed"] == slow["elapsed"]
    assert fast["flow_tx"] == slow["flow_tx"]
    # A delivered WAN crossing costs its judgement plus one arrival
    # entry, as few as a lossless crossing's single arrival allows.
    assert fast["scheduled"] == 1_468


def test_wan_reverse_fast_and_slow_paths_identical():
    """Three bulks queued on one WAN direction: a same-instant arrival
    must reach the DRR queue after the transmitter's service decision,
    as in the reference, or the flows' packets interleave differently."""
    fast = _run_contended(fast_path=True, scenario="wan_reverse")
    slow = _run_contended(fast_path=False, scenario="wan_reverse")
    assert len(fast["deliveries"]) == 102
    assert fast["deliveries"] == slow["deliveries"]
    assert fast["goodputs"] == slow["goodputs"]
    assert fast["elapsed"] == slow["elapsed"]
    assert fast["flow_tx"] == slow["flow_tx"]
    # Every bulk crossed the WAN in the same direction.
    assert len(fast["flow_tx"]["sw-gmd"]) == 3


def test_contended_fast_path_is_run_to_run_deterministic():
    a = _run_contended(fast_path=True)
    b = _run_contended(fast_path=True)
    assert a == b


def _run_heavy_mix(fast_path: bool):
    """The heavy two-site mix: six 1 MB WAN bulks both ways at the
    64 KByte MTU, four intra-site bulks at the 9180-byte ATM MTU, and
    20 frames of D1 video both ways, every delivery at every host
    recorded in dispatch order."""
    nbytes = MB
    tb = build_testbed(env=Environment(fast_path=fast_path))
    net = tb.net
    wan_ip = ClassicalIP(TESTBED_MTU)
    atm_ip = ClassicalIP(9180)
    flows: list = [
        BulkTransfer(net, src, dst, nbytes, ip=wan_ip, name=name)
        for name, src, dst in (
            ("bulk-fwd-0", tb.T3E_600, tb.E500_GMD),
            ("bulk-fwd-1", tb.T3E_1200, tb.ONYX2_GMD),
            ("bulk-fwd-2", tb.T90, tb.SP2),
            ("bulk-rev-0", tb.SP2, tb.T3E_600),
            ("bulk-rev-1", tb.E500_GMD, tb.T3E_1200),
            ("bulk-rev-2", tb.ONYX2_GMD, tb.T90),
        )
    ]
    flows += [
        BulkTransfer(net, src, dst, size, ip=atm_ip, name=name)
        for name, src, dst, size in (
            ("bulk-loc-gmd-0", tb.SP2, tb.E500_GMD, nbytes // 2),
            ("bulk-loc-gmd-1", tb.E500_GMD, tb.ONYX2_GMD, 3 * nbytes // 8),
            ("bulk-loc-jue-0", tb.FRONTEND, tb.ONYX2_JUELICH, nbytes // 2),
            ("bulk-loc-jue-1", tb.ONYX2_JUELICH, tb.FRONTEND, 3 * nbytes // 8),
        )
    ]
    flows += [
        CbrFlow(
            net,
            src,
            dst,
            frame_bytes=829_440,
            interval=1.0 / 25.0,
            n_frames=20,
            ip=atm_ip,
            name=name,
        )
        for name, src, dst in (
            ("video-d1", tb.ONYX2_JUELICH, tb.ONYX2_GMD),
            ("video-d1-rev", tb.ONYX2_GMD, tb.ONYX2_JUELICH),
        )
    ]
    deliveries: list[tuple] = []
    for hname, node in sorted(net.nodes.items()):
        if not isinstance(node, Host):
            continue
        for flow, sink in list(node._sinks.items()):
            def wrapped(packet, t, _sink=sink, _h=hname):
                deliveries.append((_h, packet.flow, packet.kind, packet.seq, t))
                _sink(packet, t)

            node._sinks[flow] = wrapped
    tb.env.run()
    return {
        "deliveries": deliveries,
        "done": {flow.name: flow.done.triggered for flow in flows},
    }


@pytest.fixture(scope="module")
def heavy_mix():
    return _run_heavy_mix(fast_path=True), _run_heavy_mix(fast_path=False)


def test_heavy_mix_fast_and_slow_paths_agree_on_volume(heavy_mix):
    """Both kernels deliver the same number of packets on the heavy mix
    and run every flow to completion."""
    fast, slow = heavy_mix
    assert len(fast["deliveries"]) == len(slow["deliveries"])
    assert all(fast["done"].values()), fast["done"]
    assert all(slow["done"].values()), slow["done"]


@pytest.mark.xfail(
    strict=True,
    reason="a fast-path link's arrival entry takes its heap serial at "
    "serialization start, while the reference allocates delivery at "
    "serialization end and switch forwarding on arrival, so same-instant "
    "arrivals can swap; the first delivery to differ is #461, t~28.85 ms",
)
def test_heavy_mix_fast_and_slow_paths_deliver_identically(heavy_mix):
    fast, slow = heavy_mix
    assert fast["deliveries"] == slow["deliveries"]


def test_demo_sweep_metrics_stable_across_runs():
    specs = demo_specs(n=4, duration=0.0)
    a = SweepRunner(serial=True).run(specs, name="demo")
    b = SweepRunner(serial=True).run(specs, name="demo")
    assert a.metrics() == b.metrics()


def test_hot_path_classes_have_no_instance_dict():
    env = Environment()
    hot = [
        env,
        Event(env),
        env.timeout(0.0),
        Store(env),
        Packet(flow="f", src="a", dst="b", ip_bytes=1500, payload_bytes=1448),
    ]
    for obj in hot:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        with pytest.raises(AttributeError):
            obj.arbitrary_new_attribute = 1


def test_process_is_slotted():
    env = Environment()

    def proc():
        yield env.timeout(0.0)

    p = env.process(proc())
    assert not hasattr(p, "__dict__")
    env.run()
