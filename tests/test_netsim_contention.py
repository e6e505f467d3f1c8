"""Shared-backbone contention: DRR fairness vs. the max-min model,
per-flow accounting, and the scheduler data structure itself.

The fairness contract: N backlogged flows crossing one DRR-scheduled
bottleneck link each get the share :func:`fair_share_throughputs`
predicts, and every dropped packet is attributed to its flow so the
per-flow tallies reconcile exactly with the aggregate link/gateway
counters.
"""

import pytest

from repro.netsim import (
    BulkTransfer,
    CbrFlow,
    ClassicalIP,
    DrrScheduler,
    FlowDemand,
    Gateway,
    Host,
    Network,
    Switch,
    build_testbed,
    fair_share_throughputs,
)
from repro.netsim.core import Packet
from repro.netsim.ip import TESTBED_MTU
from repro.sim import Environment
from tests import delivery_scenarios as ds

MB = 1024 * 1024


# -- fairness vs the closed-form model ---------------------------------------

def _dumbbell(n: int, rate: float = 100e6):
    """n zero-cost sources, fast access links, one shared bottleneck."""
    env = Environment()
    net = Network(env)
    for i in range(n):
        net.add(Host(env, f"src{i}"))
    net.add(Switch(env, "sw", latency=1e-6))
    net.add(Host(env, "dst"))
    for i in range(n):
        net.link(f"src{i}", "sw", rate * 10, 1e-6)
    net.link("sw", "dst", rate, 1e-6)
    return env, net


@pytest.mark.parametrize("n", [2, 3])
def test_equal_flows_match_fair_share_on_dumbbell(n):
    env, net = _dumbbell(n)
    flows = [
        BulkTransfer(net, f"src{i}", "dst", 2 * MB, name=f"eq{i}")
        for i in range(n)
    ]
    for flow in flows:
        env.run(until=flow.done)
    model = fair_share_throughputs(net, flows)
    goodputs = [f.throughput for f in flows]
    for flow in flows:
        assert abs(flow.throughput - model[flow.name]) / model[flow.name] < 0.05
    # ... and the flows sit within 2% of each other.
    assert max(goodputs) / min(goodputs) < 1.02


def test_testbed_equal_flows_match_fair_share():
    """The acceptance run: one transfer per Cray, all crossing the
    622 Mbit/s ATM gateway attachment of the Figure-1 testbed."""
    tb = build_testbed()
    ip = ClassicalIP(TESTBED_MTU)
    flows = [
        BulkTransfer(tb.net, src, "e500-gmd", 4 * MB, ip=ip, name=f"eq-{src}")
        for src in ("t3e-600", "t3e-1200", "t90")
    ]
    for flow in flows:
        tb.net.env.run(until=flow.done)
    model = fair_share_throughputs(tb.net, flows)
    for flow in flows:
        assert abs(flow.throughput - model[flow.name]) / model[flow.name] < 0.05


def test_fair_share_respects_cbr_rate_cap():
    """A fixed-rate source below its fair share keeps exactly its rate;
    the slack goes to the elastic flows."""
    env, net = _dumbbell(2)
    demands = [
        FlowDemand("bulk", "src0", "dst"),
        FlowDemand("cbr", "src1", "dst", rate=10e6),
    ]
    shares = fair_share_throughputs(net, demands)
    assert shares["cbr"] == pytest.approx(10e6)
    assert shares["bulk"] > shares["cbr"]
    # The elastic flow absorbs the remaining bottleneck capacity.
    single = fair_share_throughputs(net, [FlowDemand("solo", "src0", "dst")])
    assert shares["bulk"] < single["solo"]


def test_fair_share_unconstrained_flow_is_infinite():
    """Free paths (zero-cost hosts, no finite resource) fill forever."""
    env = Environment()
    net = Network(env)
    net.add(Host(env, "a"))
    net.add(Host(env, "b"))
    net.link("a", "b", float("inf"))
    shares = fair_share_throughputs(net, [FlowDemand("f", "a", "b")])
    assert shares["f"] == float("inf")


def test_fair_share_duplicate_names_rejected():
    env, net = _dumbbell(2)
    with pytest.raises(ValueError, match="duplicate flow name"):
        fair_share_throughputs(
            net,
            [FlowDemand("x", "src0", "dst"), FlowDemand("x", "src1", "dst")],
        )


# -- per-flow accounting reconciles with the aggregates ----------------------

def test_per_flow_drops_sum_to_link_totals():
    """Two CBR streams oversubscribing a shallow bottleneck queue (the
    ``overloaded`` golden pins the exact per-flow tallies)."""
    _, bott, flows = ds.overloaded_run()
    assert bott.drops["sw"] > 0  # the overload actually dropped
    for direction in bott.drops:
        per_flow = sum(bott.flow_drops[direction].values())
        assert per_flow == bott.drops[direction] + bott.lost[direction]
    # Both competing flows are represented in the attribution.
    assert {"cbr-src0", "cbr-src1"} <= set(bott.flow_drops["sw"])
    # ... and the transmit tallies reconcile too.
    for direction in bott.tx_packets:
        assert (
            sum(bott.flow_tx_packets[direction].values())
            == bott.tx_packets[direction]
        )
        assert (
            sum(bott.flow_tx_bytes[direction].values())
            == bott.tx_bytes[direction]
        )


def test_gateway_per_flow_accounting():
    """A crash mid-stream: flushed and in-service packets are attributed
    per flow, and forwarded tallies reconcile with the aggregate."""
    env = Environment()
    net = Network(env)
    net.add(Host(env, "src0"))
    net.add(Host(env, "src1"))
    net.add(Gateway(env, "gw", per_packet=120e-6))
    net.add(Host(env, "dst"))
    net.link("src0", "gw", 1e9, 1e-6)
    net.link("src1", "gw", 1e9, 1e-6)
    net.link("gw", "dst", 100e6, 1e-6)
    gw = net.nodes["gw"]
    flows = [
        CbrFlow(
            net, src, "dst", frame_bytes=50_000, interval=0.005,
            n_frames=20, name=f"cbr-{src}", drain_timeout=1.0,
        )
        for src in ("src0", "src1")
    ]
    env.call_later(0.02, gw.crash)
    env.call_later(0.05, gw.restart)
    for flow in flows:
        env.run(until=flow.done)
    assert gw.dropped > 0
    assert sum(gw.flow_drops.values()) == gw.dropped
    assert sum(gw.flow_forwarded.values()) == gw.forwarded
    assert {"cbr-src0", "cbr-src1"} <= set(gw.flow_forwarded)


# -- the scheduler data structure --------------------------------------------

def _pkt(flow: str, seq: int, nbytes: int = 1000) -> Packet:
    return Packet(
        flow=flow, src="a", dst="b", ip_bytes=nbytes, payload_bytes=nbytes,
        seq=seq,
    )


def test_drr_single_flow_is_fifo():
    sched = DrrScheduler()
    packets = [_pkt("f", i) for i in range(5)]
    for p in packets:
        sched.put_nowait(p)
    assert [sched.dequeue().seq for _ in range(5)] == [0, 1, 2, 3, 4]
    assert len(sched) == 0


def test_drr_interleaves_backlogged_flows():
    sched = DrrScheduler()
    for i in range(4):
        sched.put_nowait(_pkt("a", i))
    for i in range(4):
        sched.put_nowait(_pkt("b", i))
    served = [sched.dequeue().flow for _ in range(8)]
    # Equal unit costs: strict alternation, despite a's head start.
    assert served[:4].count("a") == 2 and served[:4].count("b") == 2


def test_drr_respects_weights():
    sched = DrrScheduler()
    sched.set_weight("heavy", 3.0)
    for i in range(12):
        sched.put_nowait(_pkt("heavy", i))
        sched.put_nowait(_pkt("light", i))
    served = [sched.dequeue().flow for _ in range(8)]
    assert served.count("heavy") == 3 * served.count("light")


def test_drr_weight_must_be_positive():
    sched = DrrScheduler()
    with pytest.raises(ValueError):
        sched.set_weight("f", 0.0)


def test_drr_cost_fairness_in_bytes():
    """With a byte cost, a big-packet flow gets fewer packets per round
    so both flows progress at equal byte rates."""
    sched = DrrScheduler(cost=lambda p: float(p.ip_bytes))
    for i in range(8):
        sched.put_nowait(_pkt("big", i, nbytes=2000))
        sched.put_nowait(_pkt("small", i, nbytes=1000))
    bytes_served = {"big": 0, "small": 0}
    for _ in range(9):
        p = sched.dequeue()
        bytes_served[p.flow] += p.ip_bytes
    assert abs(bytes_served["big"] - bytes_served["small"]) <= 2000


def test_drr_clear_resets_state():
    sched = DrrScheduler()
    for i in range(3):
        sched.put_nowait(_pkt("a", i))
        sched.put_nowait(_pkt("b", i))
    assert sched.depths() == {"a": 3, "b": 3}
    flushed = sched.clear()
    assert len(flushed) == 6
    assert len(sched) == 0
    assert sched.depths() == {}
    # Still serviceable after the flush.
    sched.put_nowait(_pkt("a", 9))
    assert sched.dequeue().seq == 9
