"""Tests for the TCP model and traffic flows, including agreement between
the closed-form prediction and the discrete-event measurement."""

import pytest

from repro.netsim import build_testbed
from repro.netsim.core import Host, Network, PlainFraming
from repro.netsim.faults import FaultInjector
from repro.netsim.flows import BulkTransfer, CbrFlow, PingFlow
from repro.netsim.ip import ClassicalIP, TESTBED_MTU
from repro.netsim.tcp import (
    PathCharacterization,
    TcpModel,
    characterize_path,
    tcp_loss_throughput_bound,
    tcp_steady_throughput,
)
from repro.sim import Environment


def two_hosts(rate=1e9, propagation=1e-3, **host_kw):
    env = Environment()
    net = Network(env)
    net.add(Host(env, "a", **host_kw))
    net.add(Host(env, "b", **host_kw))
    net.link("a", "b", rate=rate, propagation=propagation, framing=PlainFraming(0))
    return net


class TestBulkTransfer:
    def test_simple_transfer_completes(self):
        net = two_hosts()
        bt = BulkTransfer(net, "a", "b", nbytes=1_000_000)
        rate = bt.run()
        assert rate > 0
        assert bt._received == 1_000_000

    def test_throughput_approaches_wire_rate(self):
        net = two_hosts(rate=1e9, propagation=1e-6)
        ip = ClassicalIP(TESTBED_MTU)
        bt = BulkTransfer(net, "a", "b", nbytes=50_000_000, ip=ip)
        rate = bt.run()
        # PlainFraming(0): goodput ≈ rate * mss/ip_bytes minus startup
        assert rate == pytest.approx(1e9 * ip.max_segment / TESTBED_MTU, rel=0.02)

    def test_window_limits_throughput(self):
        # long fat pipe: rtt ~ 20 ms, window 64 KByte -> ~26 Mbit/s
        net = two_hosts(rate=1e9, propagation=10e-3)
        bt = BulkTransfer(
            net, "a", "b", nbytes=10_000_000,
            ip=ClassicalIP(9180), window_bytes=65536,
        )
        rate = bt.run()
        expected = 65536 * 8 / 0.020
        assert rate == pytest.approx(expected, rel=0.1)

    def test_des_matches_analytic_prediction(self):
        net = two_hosts(rate=622e6, propagation=0.5e-3, cpu_per_packet=150e-6)
        ip = ClassicalIP(TESTBED_MTU)
        predicted = tcp_steady_throughput(net, "a", "b", ip)
        bt = BulkTransfer(net, "a", "b", nbytes=60_000_000, ip=ip)
        measured = bt.run()
        assert measured == pytest.approx(predicted, rel=0.05)

    def test_slow_start_converges_to_same_rate(self):
        net = two_hosts(rate=1e9, propagation=1e-4)
        bt = BulkTransfer(
            net, "a", "b", nbytes=40_000_000,
            ip=ClassicalIP(TESTBED_MTU), slow_start=True,
        )
        rate = bt.run()
        net2 = two_hosts(rate=1e9, propagation=1e-4)
        bt2 = BulkTransfer(
            net2, "a", "b", nbytes=40_000_000,
            ip=ClassicalIP(TESTBED_MTU), slow_start=False,
        )
        rate2 = bt2.run()
        assert rate == pytest.approx(rate2, rel=0.1)

    def test_invalid_size_rejected(self):
        net = two_hosts()
        with pytest.raises(ValueError):
            BulkTransfer(net, "a", "b", nbytes=0)

    def test_throughput_before_completion_raises(self):
        net = two_hosts()
        bt = BulkTransfer(net, "a", "b", nbytes=1000)
        with pytest.raises(RuntimeError):
            _ = bt.throughput


class TestCharacterization:
    def test_stage_costs_present(self):
        net = two_hosts(cpu_per_packet=1e-4, io_bus_rate=500e6)
        char = characterize_path(net, "a", "b", ClassicalIP(9180))
        names = set(char.stages)
        assert "a.stack" in names and "b.stack" in names
        assert "a.iobus" in names
        assert any(n.endswith(".wire") for n in names)

    def test_bottleneck_identification(self):
        net = two_hosts(rate=10e6)  # slow wire dominates
        char = characterize_path(net, "a", "b", ClassicalIP(9180))
        assert char.bottleneck_stage.endswith(".wire")

    def test_tcp_model_bundles_prediction(self):
        net = two_hosts()
        model = TcpModel(ip=ClassicalIP(9180), window_bytes=1 << 20)
        assert model.predicted_throughput(net, "a", "b") > 0

    def test_degenerate_free_path_is_well_defined(self):
        """All-zero-cost hosts on an infinite-rate wire: no stages at
        all, which used to crash ``max()`` on the empty dict."""
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        net.add(Host(env, "b"))
        net.link("a", "b", rate=float("inf"), framing=PlainFraming(0))
        char = characterize_path(net, "a", "b", ClassicalIP(9180))
        assert char.stages == {}
        assert char.bottleneck_stage == "none"
        assert char.per_packet_time == 0.0
        assert char.pipeline_rate() == float("inf")
        assert tcp_steady_throughput(net, "a", "b", ClassicalIP(9180)) > 0

    def test_empty_characterization_is_well_defined(self):
        char = PathCharacterization()
        assert char.bottleneck_stage == "none"
        assert char.per_packet_time == 0.0

    def test_self_path_raises_clear_error(self):
        net = two_hosts()
        with pytest.raises(ValueError, match="self-path"):
            characterize_path(net, "a", "a", ClassicalIP(9180))


class TestLossBound:
    def _net(self):
        return two_hosts(rate=622e6, propagation=0.5e-3, cpu_per_packet=150e-6)

    def test_zero_loss_degenerates_to_steady_state(self):
        net = self._net()
        ip = ClassicalIP(9180)
        assert tcp_loss_throughput_bound(
            net, "a", "b", ip, 0.0
        ) == tcp_steady_throughput(net, "a", "b", ip)

    def test_total_loss_is_zero_goodput(self):
        """The raw Mathis form reports a positive goodput even at 100%
        loss; the bound must clamp to 0 there."""
        net = self._net()
        assert tcp_loss_throughput_bound(net, "a", "b", ClassicalIP(9180), 1.0) == 0.0

    def test_monotone_in_loss_rate(self):
        net = self._net()
        ip = ClassicalIP(9180)
        rates = [
            tcp_loss_throughput_bound(net, "a", "b", ip, p)
            for p in (0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0)
        ]
        assert all(hi >= lo for hi, lo in zip(rates, rates[1:]))
        assert rates[0] > 0 and rates[-1] == 0.0

    @pytest.mark.parametrize("bad", [-0.1, 1.5, 2.0])
    def test_out_of_range_rates_rejected(self, bad):
        net = self._net()
        with pytest.raises(ValueError, match="loss_rate"):
            tcp_loss_throughput_bound(net, "a", "b", ClassicalIP(9180), bad)


class TestRttSampleGuard:
    def test_two_flow_loss_run_survives_pruned_send_records(self):
        """Regression for the ``_sample_rtt`` KeyError family: two
        competing flows under seeded random loss exercise cumulative
        ACKs arriving for segments whose send records are pruned (and
        reordering from retransmissions); the transfers must complete
        and the bookkeeping must stay window-sized."""
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        net.add(Host(env, "c"))
        net.add(Host(env, "b"))
        net.link("a", "b", rate=200e6, propagation=1e-3, framing=PlainFraming(0))
        net.link("c", "b", rate=200e6, propagation=1e-3, framing=PlainFraming(0))
        for link in net.links.values():
            FaultInjector(net, seed=7).random_loss(link, 0.01)
        flows = [
            BulkTransfer(
                net, src, "b", nbytes=4_000_000, ip=ClassicalIP(9180),
                window_bytes=256 * 1024, name=f"lossy-{src}",
            )
            for src in ("a", "c")
        ]
        for flow in flows:
            env.run(until=flow.done)
        for flow in flows:
            assert flow.throughput > 0
            assert flow.retransmits > 0  # losses actually happened
            # Pruning keeps records bounded by the window, not the
            # whole transfer's segment count.
            assert len(flow._sent_at) < len(flow._payloads)


class TestCbrFlow:
    def test_all_frames_arrive_on_fast_link(self):
        net = two_hosts(rate=1e9, propagation=1e-4)
        flow = CbrFlow(
            net, "a", "b", frame_bytes=100_000, interval=1e-2, n_frames=20
        ).run()
        assert flow.frames_received == 20
        assert flow.frames_lost == 0

    def test_interarrival_matches_source_interval(self):
        net = two_hosts(rate=1e9, propagation=1e-4)
        flow = CbrFlow(
            net, "a", "b", frame_bytes=100_000, interval=5e-3, n_frames=30
        ).run()
        assert flow.interarrival.mean == pytest.approx(5e-3, rel=0.01)
        assert flow.jitter < 1e-6  # deterministic pipeline: no jitter

    def test_delivered_rate(self):
        net = two_hosts(rate=1e9, propagation=1e-4)
        flow = CbrFlow(
            net, "a", "b", frame_bytes=125_000, interval=1e-2, n_frames=30
        ).run()
        # 125 kB / 10 ms = 100 Mbit/s
        assert flow.delivered_rate == pytest.approx(100e6, rel=0.02)

    def test_oversubscribed_link_drops_frames(self):
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        net.add(Host(env, "b"))
        net.link("a", "b", rate=50e6, framing=PlainFraming(0), queue_packets=4)
        # offered 100 Mbit/s onto a 50 Mbit/s link with a tiny queue
        flow = CbrFlow(
            net, "a", "b", frame_bytes=125_000, interval=1e-2, n_frames=40
        ).run()
        assert flow.frames_lost > 0


class TestPingFlow:
    def test_rtt_measurement(self):
        net = two_hosts(rate=1e9, propagation=2e-3)
        rtt = PingFlow(net, "a", "b", count=5).run()
        assert rtt == pytest.approx(4e-3, rel=0.05)

    def test_all_pings_answered(self):
        net = two_hosts()
        flow = PingFlow(net, "a", "b", count=8)
        flow.run()
        assert flow.rtt.n == 8


class TestEmptySources:
    """A source with nothing to send completes on its burst chain at the
    instants the retired generator senders gave: an empty CBR stream at
    its start instant (drain check), an empty ping probe one deadline
    later.  Each costs one heap entry fewer than the generator, whose
    process also fired its own completion event."""

    @pytest.mark.parametrize("t0, done_at", [(0.0, 0.0), (0.25, 0.25)])
    def test_empty_cbr_stream(self, t0, done_at):
        tb = build_testbed()
        env = tb.env
        env.run(until=t0)
        before = env.scheduled_count
        flow = CbrFlow(
            tb.net, "sp2", "t3e-600", frame_bytes=100_000, interval=0.04,
            n_frames=0, name="video",
        )
        env.run(until=flow.done)
        assert env.now == done_at
        assert (flow.frames_received, flow.frames_lost) == (0, 0)
        assert env.scheduled_count - before == 2

    @pytest.mark.parametrize("t0, done_at", [(0.0, 0.3), (0.25, 0.55)])
    def test_empty_ping_probe(self, t0, done_at):
        tb = build_testbed()
        env = tb.env
        env.run(until=t0)
        before = env.scheduled_count
        flow = PingFlow(
            tb.net, "sp2", "t3e-600", count=0, interval=1e-3, name="ping",
            deadline=0.3,
        )
        assert flow.run() == 0.0
        assert env.now == done_at
        assert (flow.lost, flow.rtt.n) == (0, 0)
        assert env.scheduled_count - before == 3
