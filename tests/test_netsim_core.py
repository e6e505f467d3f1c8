"""Tests for the packet-level network: links, hosts, switches, gateways,
routing."""

import random

import pytest

from repro.netsim.core import (
    AtmFraming,
    Gateway,
    Host,
    HippiFraming,
    Link,
    Network,
    Node,
    Packet,
    PlainFraming,
    Switch,
)
from repro.netsim.sched import DrrScheduler
from repro.sim import Environment


def simple_net(**host_kw):
    env = Environment()
    net = Network(env)
    net.add(Host(env, "a", **host_kw))
    net.add(Host(env, "b", **host_kw))
    net.link("a", "b", rate=1e9, propagation=1e-3, framing=PlainFraming(0))
    return env, net


def mkpkt(flow="f", src="a", dst="b", ip_bytes=1000, payload=960, **kw):
    return Packet(
        flow=flow, src=src, dst=dst, ip_bytes=ip_bytes, payload_bytes=payload, **kw
    )


def test_delivery_and_latency():
    env, net = simple_net()
    got = []
    net.host("b").register_sink("f", lambda p, t: got.append((p.seq, t)))
    net.host("a").send(mkpkt(seq=7))
    env.run()
    assert got[0][0] == 7
    # serialization 8e3/1e9 = 8 µs + 1 ms propagation
    assert got[0][1] == pytest.approx(1e-3 + 8e-6)


def test_two_packets_pipeline_on_link():
    """Propagation must not serialize back-to-back packets."""
    env, net = simple_net()
    times = []
    net.host("b").register_sink("f", lambda p, t: times.append(t))
    net.host("a").send(mkpkt(seq=0))
    net.host("a").send(mkpkt(seq=1))
    env.run()
    # second arrives one serialization (8 µs) later, not one propagation later
    assert times[1] - times[0] == pytest.approx(8e-6)


def test_host_stack_cost_applied_both_sides():
    env, net = simple_net(cpu_per_packet=1e-3)
    times = []
    net.host("b").register_sink("f", lambda p, t: times.append(t))
    net.host("a").send(mkpkt())
    env.run()
    # 1 ms send stack + 8 µs wire + 1 ms propagation + 1 ms recv stack
    assert times[0] == pytest.approx(3e-3 + 8e-6)


def test_io_bus_limits_throughput():
    env = Environment()
    net = Network(env)
    net.add(Host(env, "a"))
    net.add(Host(env, "b", io_bus_rate=100e6))
    net.link("a", "b", rate=1e9, framing=PlainFraming(0))
    times = []
    net.host("b").register_sink("f", lambda p, t: times.append(t))
    for i in range(3):
        net.host("a").send(mkpkt(ip_bytes=12500, payload=12500, seq=i))  # 1 ms at bus
    env.run()
    # steady state: one packet per 1 ms (bus), not per 0.1 ms (wire)
    assert times[2] - times[1] == pytest.approx(1e-3, rel=0.01)


def test_switch_forwards_with_latency():
    env = Environment()
    net = Network(env)
    net.add(Host(env, "a"))
    net.add(Switch(env, "sw", latency=100e-6))
    net.add(Host(env, "b"))
    net.link("a", "sw", 1e9, framing=PlainFraming(0))
    net.link("sw", "b", 1e9, framing=PlainFraming(0))
    times = []
    net.host("b").register_sink("f", lambda p, t: times.append(t))
    net.host("a").send(mkpkt())
    env.run()
    assert times[0] == pytest.approx(2 * 8e-6 + 100e-6)


def test_gateway_store_and_forward_serializes():
    env = Environment()
    net = Network(env)
    net.add(Host(env, "a"))
    net.add(Gateway(env, "gw", per_packet=1e-3))
    net.add(Host(env, "b"))
    net.link("a", "gw", 1e9, framing=PlainFraming(0))
    net.link("gw", "b", 1e9, framing=PlainFraming(0))
    times = []
    net.host("b").register_sink("f", lambda p, t: times.append(t))
    for i in range(3):
        net.host("a").send(mkpkt(seq=i))
    env.run()
    assert net.nodes["gw"].forwarded == 3
    assert times[1] - times[0] == pytest.approx(1e-3, rel=0.01)


def test_multihop_routing_shortest_path():
    env = Environment()
    net = Network(env)
    for n in ("a", "s1", "s2", "b"):
        net.add(Host(env, n) if n in ("a", "b") else Switch(env, n, latency=0))
    net.link("a", "s1", 1e9)
    net.link("s1", "s2", 1e9)
    net.link("s2", "b", 1e9)
    assert net.shortest_path("a", "b") == ["a", "s1", "s2", "b"]
    assert net.next_hop("a", "b") == "s1"
    assert net.next_hop("s1", "b") == "s2"


def test_no_route_raises():
    env = Environment()
    net = Network(env)
    net.add(Host(env, "a"))
    net.add(Host(env, "b"))
    with pytest.raises(ValueError):
        net.shortest_path("a", "b")


def test_duplicate_node_rejected():
    env = Environment()
    net = Network(env)
    net.add(Host(env, "a"))
    with pytest.raises(ValueError):
        net.add(Host(env, "a"))


def test_host_lookup_type_checked():
    env = Environment()
    net = Network(env)
    net.add(Switch(env, "sw"))
    with pytest.raises(TypeError):
        net.host("sw")


def test_link_queue_drops_when_full():
    env = Environment()
    net = Network(env)
    net.add(Host(env, "a"))
    net.add(Host(env, "b"))
    link = net.link("a", "b", rate=1e6, framing=PlainFraming(0), queue_packets=2)
    for i in range(10):
        net.host("a").send(mkpkt(seq=i, ip_bytes=10000, payload=10000))
    env.run()
    assert link.drops["a"] > 0


def test_framing_changes_wire_bytes():
    plain = PlainFraming(0)
    atm = AtmFraming()
    hippi = HippiFraming()
    assert plain.wire_bytes(9180) == 9180
    assert atm.wire_bytes(9180) == 192 * 53  # + LLC/SNAP, AAL5, cells
    assert hippi.wire_bytes(9180) == 10 * 1024  # +40 FP hdr, 10 bursts


def test_link_tx_byte_accounting():
    env, net = simple_net()
    net.host("b").register_sink("f", lambda p, t: None)
    net.host("a").send(mkpkt(ip_bytes=1000))
    env.run()
    link = net.nodes["a"].links[0]
    assert link.tx_bytes["a"] == 1000
    assert link.tx_bytes["b"] == 0


def test_invalid_link_rate():
    env = Environment()
    net = Network(env)
    net.add(Host(env, "a"))
    net.add(Host(env, "b"))
    with pytest.raises(ValueError):
        net.link("a", "b", rate=0)


def test_host_forwards_transit_packets():
    """A Host that is not the destination relays (acts as IP router)."""
    env = Environment()
    net = Network(env)
    for n in ("a", "m", "b"):
        net.add(Host(env, n))
    net.link("a", "m", 1e9, framing=PlainFraming(0))
    net.link("m", "b", 1e9, framing=PlainFraming(0))
    got = []
    net.host("b").register_sink("f", lambda p, t: got.append(p.hops))
    net.host("a").send(mkpkt())
    env.run()
    assert got == [2]


# -- link transmit counters: fast path vs the generator reference ------------

class _Recorder(Node):
    """Bare endpoint: records (flow, seq, t) of every arriving packet."""

    def __init__(self, env, name):
        super().__init__(env, name)
        self.got = []

    def receive(self, packet, link):
        self.got.append((packet.flow, packet.seq, self.env.now))


#: serialization time of one 1,000-byte packet at 1 Mbit/s, no framing
SER = 1000 * 8 / 1e6


def _counter_run(fast_path, script):
    """Drive a bare two-node 1 Mbit/s, 1 ms link with ``script(env,
    link, a)`` and return its transmit counters and deliveries."""
    env = Environment(fast_path=fast_path)
    a, b = _Recorder(env, "a"), _Recorder(env, "b")
    link = Link(env, a, b, 1e6, 1e-3, framing=PlainFraming(0))
    script(env, link, a)
    env.run()
    return {
        "tx_packets": link.tx_packets,
        "tx_bytes": link.tx_bytes,
        "flow_tx_packets": link.flow_tx_packets,
        "flow_tx_bytes": link.flow_tx_bytes,
        "busy_seconds": link.busy_seconds("a"),
        "deliveries": b.got,
        "drop_reasons": dict(link.drop_reasons),
    }


def _other_flow_mid_backlog(env, link, a):
    for i in range(6):
        link.send(a, mkpkt(flow="bulk", seq=i))
    env.call_at(2.5 * SER, link.send, a, mkpkt(flow="ping", seq=0))


def _background_load_mid_backlog(env, link, a):
    for i in range(8):
        link.send(a, mkpkt(flow="bulk", seq=i))
    env.call_at(2.5 * SER, link.set_background_load, "a", 0.4)
    env.call_at(5.5 * SER, link.set_background_load, "a", 0.0)


def _flap(link, a, seqs):
    """Link down and straight back up, then new packets at once."""
    link.set_up(False)
    link.set_up(True)
    for i in seqs:
        link.send(a, mkpkt(flow="bulk", seq=i))


def _flap_at_service_boundary(env, link, a):
    # Scheduled before the sends, so the flap runs at SER ahead of the
    # service decision due then: the backlog is flushed while that
    # decision is still armed, and the new packets must queue behind it.
    env.call_at(SER, _flap, link, a, (3, 4))
    for i in range(3):
        link.send(a, mkpkt(flow="bulk", seq=i))


def _lossy_flap_mid_serialization(env, link, a):
    # The in-service packet already has a completion judgement; new
    # packets queue behind it again before it completes.
    link.set_loss(0.5, "a", rng=random.Random(3))
    for i in range(3):
        link.send(a, mkpkt(flow="bulk", seq=i))
    env.call_at(0.5 * SER, _flap, link, a, (3, 4))


@pytest.mark.parametrize(
    "script, sent, delivered",
    [
        (_other_flow_mid_backlog, 7, 7),
        (_background_load_mid_backlog, 8, 8),
        (_flap_at_service_boundary, 3, 3),
        (_lossy_flap_mid_serialization, 3, 1),
    ],
    ids=["other_flow", "background_load", "flap_at_service_boundary",
         "lossy_flap_mid_serialization"],
)
def test_fast_path_tx_counters_match_reference(script, sent, delivered):
    """Every packet the link sends is counted once, on both forms.  A
    link flap flushes the backlog without leaving a second transmitter
    running: packets sent right after it are serialized one at a time."""
    fast = _counter_run(True, script)
    slow = _counter_run(False, script)
    assert fast == slow
    assert fast["tx_packets"] == {"a": sent, "b": 0}
    assert len(fast["deliveries"]) == delivered


# -- typed input checks -------------------------------------------------------

def _two_nodes():
    env = Environment()
    return env, _Recorder(env, "a"), _Recorder(env, "b")


@pytest.mark.parametrize(
    "kw, bad",
    [
        ({"rate": float("nan")}, "nan"),
        ({"propagation": -1e-3}, "-0.001"),
        ({"propagation": float("nan")}, "nan"),
        ({"queue_packets": float("nan")}, "nan"),
        ({"queue_packets": -1}, "-1"),
    ],
    ids=["rate_nan", "propagation_negative", "propagation_nan",
         "queue_nan", "queue_negative"],
)
def test_link_rejects_bad_parameters(kw, bad):
    env, a, b = _two_nodes()
    args = {"rate": 1e6, **kw}
    with pytest.raises(ValueError, match=bad):
        Link(env, a, b, **args)
    assert a.links == [] and b.links == []


def test_link_accepts_infinite_rate():
    env, a, b = _two_nodes()
    Link(env, a, b, float("inf"))


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1.0])
def test_flow_weight_must_be_positive_and_finite(weight):
    env, a, b = _two_nodes()
    link = Link(env, a, b, 1e6)
    with pytest.raises(ValueError, match=repr(weight)):
        link.set_flow_weight("f", weight)
    with pytest.raises(ValueError, match=repr(weight)):
        DrrScheduler(env).set_weight("f", weight)
