"""Tests for the packet-level network: links, hosts, switches, gateways,
routing."""

import pytest

from repro.netsim.core import (
    AtmFraming,
    Gateway,
    Host,
    HippiFraming,
    Link,
    Network,
    Packet,
    PlainFraming,
    Switch,
)
from repro.netsim.sched import DrrScheduler
from repro.sim import Environment
from tests import delivery_scenarios as ds


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


# -- link transmit counters ---------------------------------------------------

@pytest.mark.parametrize(
    "script, sent, delivered",
    [
        ("other_flow", 7, 7),
        ("background_load", 8, 8),
        ("flap_at_service_boundary", 3, 3),
        ("lossy_flap_mid_serialization", 3, 1),
    ],
    ids=["other_flow", "background_load", "flap_at_service_boundary",
         "lossy_flap_mid_serialization"],
)
def test_tx_counters(script, sent, delivered):
    """Every packet the link sends is counted once.  A link flap flushes
    the backlog without leaving a second transmitter running: packets
    sent right after it are serialized one at a time.  (The full
    counters and delivery times are pinned by the ``counters_*``
    goldens.)"""
    got = ds.counter_run(script)
    assert got["tx_packets"] == {"a": sent, "b": 0}
    assert len(got["deliveries"]) == delivered
    for per_flow, total in (
        (got["flow_tx_packets"], got["tx_packets"]),
        (got["flow_tx_bytes"], got["tx_bytes"]),
    ):
        assert {d: sum(f.values()) for d, f in per_flow.items()} == total


# -- typed input checks -------------------------------------------------------

def _two_nodes():
    env = Environment()
    return env, ds.Recorder(env, "a"), ds.Recorder(env, "b")


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
        DrrScheduler().set_weight("f", weight)


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "node, kw, bad",
    [
        (Host, {"cpu_per_packet": -1e-6}, "host cpu_per_packet .*-1e-06"),
        (Host, {"cpu_per_packet": NAN}, "host cpu_per_packet .*nan"),
        (Host, {"cpu_per_packet": INF}, "host cpu_per_packet .*inf"),
        (Host, {"io_bus_rate": 0}, "host io_bus_rate .*got 0"),
        (Host, {"io_bus_rate": -1e6}, "host io_bus_rate .*-1000000.0"),
        (Host, {"io_bus_rate": NAN}, "host io_bus_rate .*nan"),
        (Switch, {"latency": NAN}, "switch latency .*nan"),
        (Switch, {"latency": -1e-6}, "switch latency .*-1e-06"),
        (Gateway, {"per_packet": -1}, "gateway per_packet .*-1"),
        (Gateway, {"per_packet": NAN}, "gateway per_packet .*nan"),
    ],
    ids=["cpu_negative", "cpu_nan", "cpu_inf", "bus_zero", "bus_negative",
         "bus_nan", "switch_nan", "switch_negative", "gateway_negative",
         "gateway_nan"],
)
def test_node_rejects_bad_costs(node, kw, bad):
    """A bad per-packet cost is a ValueError naming it at construction,
    not a silent zero-cost bypass (negative or NaN stack cost), a
    ZeroDivisionError swallowed in the sender (``io_bus_rate=0``) or a
    SimulationError mid-run."""
    with pytest.raises(ValueError, match=bad):
        node(Environment(), "n", **kw)


def test_node_accepts_free_costs():
    env = Environment()
    assert Host(env, "h", cpu_per_packet=0.0, io_bus_rate=INF)._bypass
    Switch(env, "s", latency=0.0)
    Gateway(env, "g", per_packet=0.0)
