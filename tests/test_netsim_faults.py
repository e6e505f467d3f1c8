"""Fault injection and loss recovery: retransmitting TCP, link/gateway
failures, route failover, and regression tests for the drop-hang bug
family (flows that used to block forever on a single lost packet)."""

import pytest

from repro.machines import CRAY_T3E_600, IBM_SP2
from repro.metampi import MetaMPI
from repro.metampi.errors import RankFailed, TransportError
from repro.metampi.transport import RetryPolicy, TransportModel
from repro.netsim import (
    BulkTransfer,
    CbrFlow,
    ClassicalIP,
    FaultInjector,
    PingFlow,
    TransferStalled,
    build_testbed,
)
from repro.netsim.core import Host, Network, PlainFraming, Switch
from repro.netsim.ip import TESTBED_MTU
from repro.netsim.tcp import tcp_loss_throughput_bound, tcp_steady_throughput
from repro.sim import Environment

IP64K = ClassicalIP(TESTBED_MTU)


def two_hosts(rate=1e9, propagation=1e-3, queue_packets=float("inf"), **host_kw):
    env = Environment()
    net = Network(env)
    net.add(Host(env, "a", **host_kw))
    net.add(Host(env, "b", **host_kw))
    net.link(
        "a", "b",
        rate=rate, propagation=propagation,
        framing=PlainFraming(0), queue_packets=queue_packets,
    )
    return net


def diamond_net():
    """a — x — b and a — y — b: two equal-cost two-hop paths."""
    env = Environment()
    net = Network(env)
    net.add(Host(env, "a"))
    net.add(Host(env, "b"))
    net.add(Switch(env, "x", latency=0.0))
    net.add(Switch(env, "y", latency=0.0))
    net.link("a", "x", 1e9, framing=PlainFraming(0))
    net.link("x", "b", 1e9, framing=PlainFraming(0))
    net.link("a", "y", 1e9, framing=PlainFraming(0))
    net.link("y", "b", 1e9, framing=PlainFraming(0))
    return net


class TestBulkTransferRecovery:
    def test_completes_over_bounded_queue(self):
        """Acceptance: a finite transmit queue drops packets under a full
        window; the transfer must retransmit and still complete (the seed
        code deadlocked here — `done` never fired)."""
        net = two_hosts(rate=100e6, propagation=1e-3, queue_packets=4)
        bt = BulkTransfer(net, "a", "b", nbytes=2_000_000, ip=ClassicalIP(9180))
        rate = bt.run()
        link = net.links["a--b"]
        assert link.drops["a"] > 0  # losses really happened
        assert bt.retransmits > 0
        assert bt._received == 2_000_000
        assert 0 < rate < float("inf")

    def test_completes_under_random_wire_loss(self):
        net = two_hosts(rate=622e6, propagation=1e-3)
        FaultInjector(net, seed=42).random_loss("a--b", 0.02, direction="a")
        bt = BulkTransfer(net, "a", "b", nbytes=5_000_000, ip=IP64K)
        rate = bt.run()
        assert bt._received == 5_000_000
        assert bt.retransmits > 0
        assert 0 < rate < float("inf")

    def test_lossy_throughput_bounded_by_zero_loss_reference(self):
        """Cross-check: the measured degraded goodput stays below the
        closed-form zero-loss reference and above a sanity floor."""
        loss = 0.01
        net = two_hosts(rate=622e6, propagation=1e-3)
        zero_loss = tcp_steady_throughput(net, "a", "b", IP64K, 8 * 1024 * 1024)
        bound = tcp_loss_throughput_bound(
            net, "a", "b", IP64K, loss, 8 * 1024 * 1024
        )
        FaultInjector(net, seed=7).random_loss("a--b", loss, direction="a")
        measured = BulkTransfer(net, "a", "b", nbytes=10_000_000, ip=IP64K).run()
        assert measured < zero_loss
        assert bound <= zero_loss
        assert measured > 0.01 * bound  # degraded, not dead

    def test_zero_loss_bound_is_steady_state(self):
        net = two_hosts()
        assert tcp_loss_throughput_bound(
            net, "a", "b", IP64K, 0.0
        ) == tcp_steady_throughput(net, "a", "b", IP64K)

    def test_recovers_from_mid_transfer_link_outage(self):
        net = two_hosts(rate=622e6, propagation=1e-3)
        FaultInjector(net).link_down("a--b", at=0.05, duration=0.5)
        bt = BulkTransfer(net, "a", "b", nbytes=20_000_000, ip=IP64K)
        rate = bt.run()
        assert bt.timeouts > 0  # the outage forced RTO recovery
        assert bt._received == 20_000_000
        assert 0 < rate < float("inf")

    def test_dead_path_raises_instead_of_hanging(self):
        net = two_hosts()
        FaultInjector(net).link_down("a--b", at=0.0)  # down forever
        bt = BulkTransfer(net, "a", "b", nbytes=1_000_000, ip=IP64K)
        with pytest.raises(TransferStalled):
            bt.run()

    def test_timer_error_propagates_out_of_run(self):
        """An exception raised inside the retransmission timer stops the
        run with that exception."""

        def raising():
            raise RuntimeError("timer failed")

        net = two_hosts()
        FaultInjector(net).link_down("a--b", at=0.0)
        bt = BulkTransfer(net, "a", "b", nbytes=1_000_000, ip=IP64K)
        # With the link down from the start no ACK ever arrives, so the
        # first call is the timer's, right after it counts the timeout.
        bt._first_unacked = raising
        with pytest.raises(RuntimeError, match="timer failed"):
            bt.run()
        assert bt.timeouts == 1 and not bt.done.triggered

    def test_fast_retransmit_on_single_drop(self):
        """One mid-stream drop with traffic behind it triggers dup-ACK
        fast retransmit, not (only) an RTO."""
        net = two_hosts(rate=622e6, propagation=2e-3)
        # Lose a short window of packets early in the transfer.
        FaultInjector(net, seed=3).random_loss(
            "a--b", 0.9, start=0.004, duration=0.002, direction="a"
        )
        bt = BulkTransfer(net, "a", "b", nbytes=20_000_000, ip=IP64K)
        bt.run()
        assert bt.fast_retransmits > 0
        assert bt._received == 20_000_000

    def test_fault_injection_is_deterministic(self):
        def run_once():
            net = two_hosts(rate=622e6, propagation=1e-3)
            FaultInjector(net, seed=99).random_loss("a--b", 0.02)
            bt = BulkTransfer(net, "a", "b", nbytes=5_000_000, ip=IP64K)
            rate = bt.run()
            link = net.links["a--b"]
            return rate, bt.retransmits, link.lost["a"], link.lost["b"]

        assert run_once() == run_once()

    def test_no_loss_counters_stay_zero(self):
        net = two_hosts()
        bt = BulkTransfer(net, "a", "b", nbytes=5_000_000, ip=IP64K)
        bt.run()
        assert bt.retransmits == 0
        assert bt.timeouts == 0
        assert bt.fast_retransmits == 0


class TestPingLossRegression:
    def test_lost_echo_does_not_hang(self):
        """Seed bug: one lost echo meant `done` never fired."""
        net = two_hosts()
        FaultInjector(net).link_down("a--b")  # everything is lost
        flow = PingFlow(net, "a", "b", count=5, deadline=0.5)
        flow.run()  # must return
        assert flow.lost == 5
        assert flow.rtt.n == 0

    def test_partial_loss_reports_count(self):
        net = two_hosts(rate=1e9, propagation=1e-4)
        # Lose echoes for a window covering some of the pings.
        FaultInjector(net).link_down("a--b", at=2.5e-3, duration=2.5e-3)
        flow = PingFlow(net, "a", "b", count=8, interval=1e-3, deadline=0.5)
        flow.run()
        assert 0 < flow.lost < 8
        assert flow.rtt.n + flow.lost == 8

    def test_no_loss_still_completes_early(self):
        net = two_hosts(rate=1e9, propagation=2e-3)
        flow = PingFlow(net, "a", "b", count=5)
        rtt = flow.run()
        assert flow.lost == 0
        assert rtt == pytest.approx(4e-3, rel=0.05)


class TestCbrTailRegression:
    def test_long_rtt_tail_not_miscounted_as_lost(self):
        """Seed bug: the fixed `interval * 4` drain under-waited on
        long-RTT paths, so in-flight frames were declared lost."""
        net = two_hosts(rate=1e9, propagation=0.5)  # half-second one-way
        flow = CbrFlow(
            net, "a", "b", frame_bytes=100_000, interval=1e-3, n_frames=10
        ).run()
        assert flow.frames_lost == 0
        assert flow.frames_received == 10

    def test_explicit_drain_timeout_caps_wait(self):
        net = two_hosts(rate=1e9, propagation=0.5)
        flow = CbrFlow(
            net, "a", "b", frame_bytes=100_000, interval=1e-3, n_frames=10,
            drain_timeout=0.01,  # give up long before the 0.5 s flight
        ).run()
        assert flow.frames_lost == 10

    def test_real_drops_still_counted(self):
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        net.add(Host(env, "b"))
        net.link("a", "b", rate=50e6, framing=PlainFraming(0), queue_packets=4)
        flow = CbrFlow(
            net, "a", "b", frame_bytes=125_000, interval=1e-2, n_frames=40
        ).run()
        assert flow.frames_lost > 0


class TestNetworkFailureAwareness:
    def test_duplicate_parallel_link_rejected(self):
        """Seed bug: a second a--b link was accepted and shadowed by
        `link_to`, so its stats were attributed to the wrong link."""
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        net.add(Host(env, "b"))
        net.link("a", "b", 1e9)
        with pytest.raises(ValueError):
            net.link("a", "b", 1e9)
        with pytest.raises(ValueError):
            net.link("b", "a", 622e6)  # same pair, reversed

    def test_utilization_bounded_mid_transmission(self):
        """Seed bug: busy_time was credited at transmit start, so a query
        mid-serialization reported utilization > 1."""
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        net.add(Host(env, "b"))
        link = net.link("a", "b", rate=1e3, framing=PlainFraming(0))
        net.host("b").register_sink("f", lambda p, t: None)
        from repro.netsim.core import Packet

        net.host("a").send(
            Packet(flow="f", src="a", dst="b", ip_bytes=1000, payload_bytes=1000)
        )
        # 1000 B at 1 kbit/s = 8 s serialization; query at 1 s.
        env.run(until=1.0)
        assert 0.0 < link.utilization("a") <= 1.0

    def test_route_cache_invalidated_on_link_state_change(self):
        net = diamond_net()
        first = net.next_hop("a", "b")
        alternate = "y" if first == "x" else "x"
        net.nodes["a"].link_to(first).set_up(False)
        assert net.next_hop("a", "b") == alternate
        # ... and the path works end to end after failover
        got = []
        net.host("b").register_sink("f", lambda p, t: got.append(t))
        from repro.netsim.core import Packet

        net.host("a").send(
            Packet(flow="f", src="a", dst="b", ip_bytes=1000, payload_bytes=1000)
        )
        net.env.run()
        assert len(got) == 1

    def test_link_recovery_restores_routes(self):
        net = diamond_net()
        first = net.next_hop("a", "b")
        link = net.nodes["a"].link_to(first)
        link.set_up(False)
        assert net.next_hop("a", "b") != first
        link.set_up(True)
        assert net.next_hop("a", "b") == first  # BFS order is deterministic

    def test_partition_drops_instead_of_crashing(self):
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        net.add(Host(env, "b"))
        net.link("a", "b", 1e9, framing=PlainFraming(0))
        from repro.netsim.core import Packet

        net.links["a--b"].set_up(False)
        net.host("a").send(
            Packet(flow="f", src="a", dst="b", ip_bytes=100, payload_bytes=100)
        )
        env.run()
        assert net.no_route_drops == 1

    def test_gateway_crash_and_restart(self):
        tb = build_testbed()
        fi = FaultInjector(tb.net)
        fi.gateway_crash("gw-e5000", at=0.0, duration=0.3)
        bt = BulkTransfer(tb.net, "t3e-600", "sp2", 4 * 2**20, ip=IP64K)
        rate = bt.run()
        assert bt._received == 4 * 2**20
        assert rate > 0
        assert [what for _, what in fi.log] == [
            "gateway gw-e5000 crashed",
            "gateway gw-e5000 restarted",
        ]


NAN, INF = float("nan"), float("inf")


class TestFaultWindows:
    """Window times are checked where the fault is scheduled, and a
    fault window's errors reach the caller of ``env.run``."""

    BAD_TIMES = [
        pytest.param({"at": NAN}, "at", id="nan-at"),
        pytest.param({"at": -1.0}, "at", id="negative-at"),
        pytest.param({"at": INF}, "at", id="infinite-at"),
        pytest.param({"duration": -1.0}, "duration", id="negative-duration"),
        pytest.param({"duration": NAN}, "duration", id="nan-duration"),
        pytest.param({"duration": INF}, "duration", id="infinite-duration"),
    ]

    @staticmethod
    def _rejected(net, schedule, match):
        before = net.env.scheduled_count
        with pytest.raises(ValueError, match=match):
            schedule(FaultInjector(net))
        assert net.env.scheduled_count == before  # nothing scheduled

    @pytest.mark.parametrize("kw, match", BAD_TIMES)
    def test_link_down_rejects_bad_times(self, kw, match):
        self._rejected(two_hosts(), lambda fi: fi.link_down("a--b", **kw), match)

    @pytest.mark.parametrize("kw, match", BAD_TIMES)
    def test_random_loss_rejects_bad_times(self, kw, match):
        kw = {("start" if k == "at" else k): v for k, v in kw.items()}
        match = "start" if match == "at" else match
        self._rejected(
            two_hosts(), lambda fi: fi.random_loss("a--b", 0.1, **kw), match
        )

    @pytest.mark.parametrize("kw, match", BAD_TIMES)
    def test_gateway_crash_rejects_bad_times(self, kw, match):
        self._rejected(
            build_testbed().net, lambda fi: fi.gateway_crash("gw-e5000", **kw), match
        )

    @pytest.mark.parametrize("horizon", [NAN, INF, 0.0, -1.0])
    def test_outage_schedule_rejects_bad_horizon(self, horizon):
        fi = FaultInjector(two_hosts())
        with pytest.raises(ValueError, match="horizon"):
            fi.outage_schedule(["a--b"], horizon=horizon)

    @pytest.mark.parametrize(
        "low, high",
        [(-0.5, 0.5), (0.5, 0.1), (0.0, INF), (NAN, 0.1)],
        ids=["negative-min", "min-above-max", "infinite-max", "nan-min"],
    )
    def test_outage_schedule_rejects_bad_durations(self, low, high):
        """Checked before any window is drawn: no partial schedule."""
        self._rejected(
            two_hosts(),
            lambda fi: fi.outage_schedule(
                ["a--b"], horizon=1.0, outages=6, min_duration=low, max_duration=high
            ),
            "duration",
        )

    def test_zero_times_and_open_duration_accepted(self):
        net = two_hosts()
        fi = FaultInjector(net)
        fi.link_down("a--b", at=0.0, duration=0.0)
        fi.random_loss("a--b", 0.1, start=0.5, duration=None)
        net.env.run(until=1.0)
        assert [what for _, what in fi.log] == [
            "link a--b down",
            "link a--b up",
            "link a--b loss p=0.1",
        ]

    def test_window_error_propagates_out_of_run(self):
        """A raising invalidation listener stops the run at the fault
        instead of leaving the link down for good."""
        tb = build_testbed()

        def listener():
            raise RuntimeError("listener failed")

        tb.net.add_invalidation_listener(listener)
        FaultInjector(tb.net).link_down(tb.wan_link, at=0.01, duration=0.1)
        with pytest.raises(RuntimeError, match="listener failed"):
            tb.env.run(until=1.0)
        assert tb.env.now == 0.01


class TestTransportFailures:
    def test_wan_cache_invalidated_on_failure(self):
        tb = build_testbed()
        tm = TransportModel(net=tb.net)
        tm.wan("t3e-600", "sp2")
        assert tm._wan_cache
        tb.wan_link.set_up(False)
        assert not tm._wan_cache  # invalidation hook fired

    def test_dead_path_raises_transport_error(self):
        tb = build_testbed()
        tm = TransportModel(
            net=tb.net, retry=RetryPolicy(max_attempts=3, backoff=0.01)
        )
        FaultInjector(tb.net).link_down(tb.wan_link)
        tb.net.env.run(until=tb.net.env.now + 1e-6)  # let the fault apply
        with pytest.raises(TransportError) as err:
            tm.wan("t3e-600", "sp2")
        assert err.value.attempts == 3
        assert err.value.src_host == "t3e-600"

    def test_retry_backoff_survives_transient_outage(self):
        """A link-up scheduled inside the backoff window heals the send:
        retries advance the network clock, so the path recovers."""
        tb = build_testbed()
        tm = TransportModel(
            net=tb.net, retry=RetryPolicy(max_attempts=5, backoff=0.05)
        )
        FaultInjector(tb.net).link_down(tb.wan_link, at=0.0, duration=0.1)
        tb.net.env.run(until=tb.net.env.now + 1e-6)
        cost = tm.wan("t3e-600", "sp2")  # must succeed via retries
        assert cost.bandwidth > 0

    def test_post_failure_costs_not_stale(self):
        """After an OC-48 → OC-12 style change the cached WAN cost must
        be recomputed, not served stale."""
        tb = build_testbed()
        tm = TransportModel(net=tb.net)
        before = tm.wan("onyx2-juelich", "onyx2-gmd")
        # Degrade the Jülich attachment: halve the link rate via a state
        # change (down/up) plus direct rate edit.
        link = tb.net.nodes["onyx2-juelich"].link_to("sw-juelich")
        link.rate = link.rate / 100.0
        tb.net.invalidate_routes()
        after = tm.wan("onyx2-juelich", "onyx2-gmd")
        assert after.bandwidth < before.bandwidth

    def test_metampi_send_over_dead_wan_raises_rankfailed(self):
        """End to end: a rank sending across a dead WAN surfaces a typed
        TransportError through join() instead of deadlocking."""
        tb = build_testbed()
        FaultInjector(tb.net).link_down(tb.wan_link)
        tb.net.env.run(until=tb.net.env.now + 1e-6)
        transport = TransportModel(
            net=tb.net, retry=RetryPolicy(max_attempts=2, backoff=0.01)
        )
        mc = MetaMPI(transport=transport, wallclock_timeout=30.0)
        mc.add_machine(CRAY_T3E_600, ranks=1)
        mc.add_machine(IBM_SP2, ranks=1)

        def main(comm):
            if comm.rank == 0:
                comm.send([1, 2, 3], dest=1)
            else:
                comm.recv(source=0)

        with pytest.raises(RankFailed) as err:
            mc.run(main)
        original = err.value.original
        assert isinstance(original, TransportError)
        assert original.src_rank == 0
        assert original.dst_rank == 1
