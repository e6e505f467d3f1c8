"""Integration tests: probes wired into netsim/metampi/fire, the
zero-overhead NullRegistry guarantee, and the fault → alert → recovery
loop composing with :mod:`repro.netsim.faults`."""

import os

import pytest

from repro.fire import FirePipeline, HeadPhantom, PipelineConfig
from repro.fire.rt import RTClient, RTServer
from repro.fire.scanner import ScannerConfig, SimulatedScanner
from repro.machines import CRAY_T3E_600, IBM_SP2
from repro.metampi import MetaMPI
from repro.metampi.errors import TransportError
from repro.metampi.runtime import Runtime
from repro.metampi.transport import RetryPolicy, TransportModel
from repro.netsim import (
    BulkTransfer,
    CbrFlow,
    ClassicalIP,
    FaultInjector,
    Gateway,
    Host,
    Network,
    PingFlow,
    build_testbed,
)
from repro.netsim.ip import TESTBED_MTU
from repro.sim import Environment
from repro.telemetry import (
    AlertManager,
    MetricsRegistry,
    NullRegistry,
    Sampler,
    counter_nonzero,
    instrument_flow,
    instrument_network,
    instrument_pipeline,
    instrument_rt_client,
    instrument_runtime,
    link_down,
    to_jsonl,
    weather_map,
)
from repro.util.units import MBYTE

IP64K = ClassicalIP(TESTBED_MTU)


def lossy_wan_run(registry, nbytes=10 * MBYTE, loss=0.02, sample=True):
    """One seeded lossy WAN transfer, optionally instrumented."""
    tb = build_testbed()
    FaultInjector(tb.net, seed=1).random_loss(
        tb.wan_link, loss, direction="sw-juelich"
    )
    bt = BulkTransfer(tb.net, "t3e-600", "sp2", nbytes, ip=IP64K)
    sampler = None
    if registry is not None:
        instrument_network(tb.net, registry)
        instrument_flow(bt, registry)
        if sample and registry.enabled:
            sampler = Sampler(tb.net.env, registry, interval=0.01).start()
    rate = bt.run()
    if sampler is not None:
        sampler.stop()
    fingerprint = {
        "now": tb.net.env.now,
        "rate": rate,
        "retransmits": bt.retransmits,
        "timeouts": bt.timeouts,
        "fast_retransmits": bt.fast_retransmits,
        "links": {
            name: (
                dict(link.tx_bytes),
                dict(link.tx_packets),
                dict(link.drops),
                dict(link.lost),
            )
            for name, link in tb.net.links.items()
        },
    }
    return fingerprint, tb, bt


class TestNetworkProbes:
    def test_counters_mirror_link_state(self):
        reg = MetricsRegistry()
        _, tb, bt = lossy_wan_run(reg)
        wan = tb.wan_link
        d = "sw-juelich"
        assert (
            reg.value("netsim.link.tx_packets", link=wan.name, direction=d)
            == wan.tx_packets[d]
        )
        assert (
            reg.value("netsim.link.tx_bytes", link=wan.name, direction=d)
            == wan.tx_bytes[d]
        )
        # typed drop reason surfaced with a label, matching the link tally
        assert wan.drop_reasons["wire_loss"] > 0
        assert (
            reg.value(
                "netsim.link.drops", link=wan.name, direction=d, reason="wire_loss"
            )
            == wan.drop_reasons["wire_loss"]
        )

    def test_utilization_and_queue_gauges(self):
        reg = MetricsRegistry()
        _, tb, _ = lossy_wan_run(reg)
        wan = tb.wan_link
        util = reg.value(
            "netsim.link.utilization", link=wan.name, direction="sw-juelich"
        )
        assert 0.0 <= util <= 1.0
        depth = reg.value(
            "netsim.link.queue_depth", link=wan.name, direction="sw-juelich"
        )
        assert depth == 0.0  # drained at completion
        assert reg.value("netsim.link.up", link=wan.name) == 1.0

    def test_flow_labelled_drops_and_gauges(self):
        """Per-flow accounting: wire losses surface under the flow's
        name and match the link's own per-flow tally, and opting a flow
        into ``instrument_network`` registers per-flow volume gauges."""
        reg = MetricsRegistry()
        tb = build_testbed()
        FaultInjector(tb.net, seed=1).random_loss(
            tb.wan_link, 0.02, direction="sw-juelich"
        )
        bt = BulkTransfer(
            tb.net, "t3e-600", "sp2", 10 * MBYTE, ip=IP64K, name="probed"
        )
        instrument_network(tb.net, reg, flows=["probed"])
        bt.run()
        wan = tb.wan_link
        d = "sw-juelich"
        assert wan.flow_drops[d]["probed"] > 0
        assert (
            reg.value(
                "netsim.link.flow_drops",
                link=wan.name,
                direction=d,
                reason="wire_loss",
                flow="probed",
            )
            == wan.flow_drops[d]["probed"]
        )
        assert (
            reg.value(
                "netsim.link.flow_tx_bytes",
                link=wan.name,
                direction=d,
                flow="probed",
            )
            == wan.flow_tx_bytes[d]["probed"]
        )
        assert (
            reg.value(
                "netsim.link.flow_queue_depth",
                link=wan.name,
                direction=d,
                flow="probed",
            )
            == 0.0  # drained at completion
        )

    def test_flow_probe_counts_recovery_events(self):
        reg = MetricsRegistry()
        _, _, bt = lossy_wan_run(reg)
        assert bt.retransmits > 0
        total_rexmt = sum(
            s.value
            for s in reg.series("counter")
            if s.name == "netsim.flow.retransmits" and s.labels["flow"] == bt.name
        )
        assert total_rexmt == bt.retransmits
        assert (
            reg.value("netsim.flow.timeouts", flow=bt.name) == bt.timeouts
        )
        assert reg.value("netsim.flow.goodput_bps", flow=bt.name) == pytest.approx(
            bt.throughput
        )

    def test_gateway_probe(self):
        reg = MetricsRegistry()
        tb = build_testbed()
        instrument_network(tb.net, reg)
        BulkTransfer(tb.net, "t3e-600", "sp2", 2 * MBYTE, ip=IP64K).run()
        gw = tb.net.nodes["gw-e5000"]
        assert gw.forwarded > 0
        assert reg.value("netsim.gateway.forwarded", gateway="gw-e5000") == (
            gw.forwarded
        )

    def test_sampler_timeseries_of_utilization(self):
        reg = MetricsRegistry()
        fp, tb, _ = lossy_wan_run(reg)
        # the sampler stored a ring buffer; values must be within [0, 1]
        # (the sampler object is internal to lossy_wan_run, so re-run here)
        tb2 = build_testbed()
        reg2 = MetricsRegistry()
        instrument_network(tb2.net, reg2)
        sampler = Sampler(tb2.net.env, reg2, interval=0.05).start()
        bt = BulkTransfer(tb2.net, "t3e-600", "sp2", 10 * MBYTE, ip=IP64K)
        bt.run()
        sampler.stop()
        buf = sampler.buffer(
            "netsim.link.utilization",
            link=tb2.wan_link.name,
            direction="sw-juelich",
        )
        assert buf is not None and len(buf) > 3
        assert all(0.0 <= v <= 1.0 for v in buf.values())
        assert max(buf.values()) > 0.0


class TestExportPinned:
    def test_wan_bulk_export_matches_committed_artifact(self, tmp_path):
        """The instrumented 40 MByte ``wan-bulk`` run of
        ``benchmarks/bench_telemetry_overhead.py`` exports, byte for
        byte, the committed ``telemetry_metrics.jsonl``: every series,
        its creation order, labels and value."""
        tb = build_testbed()
        bt = BulkTransfer(
            tb.net, "t3e-600", "sp2", 40 * MBYTE, ip=IP64K, name="wan-bulk"
        )
        reg = MetricsRegistry()
        instrument_network(tb.net, reg)
        instrument_flow(bt, reg)
        sampler = Sampler(tb.net.env, reg).start()
        bt.run()
        sampler.stop()
        out = tmp_path / "telemetry_metrics.jsonl"
        to_jsonl(reg, str(out), now=tb.net.env.now)
        committed = os.path.join(
            os.path.dirname(__file__), os.pardir,
            "benchmarks", "results", "telemetry_metrics.jsonl",
        )
        with open(committed, "rb") as fh:
            assert out.read_bytes() == fh.read()


class TestGatewayDrops:
    def test_crash_with_queue_and_packet_in_service(self):
        """A gateway crashing mid-burst drops packets on all three
        ``gateway_down`` arms: the queue flush, the packet whose service
        ends while it is down, and arrivals while it is down.  The
        gateway's views, its telemetry series and the flow's packet
        balance all agree."""
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        gw = net.add(Gateway(env, "gw", per_packet=1e-3))
        net.add(Host(env, "b"))
        net.link("a", "gw", 1e9)
        net.link("gw", "b", 1e9)
        reg = MetricsRegistry()
        instrument_network(net, reg)
        sampler = Sampler(env, reg, interval=0.7e-3).start()
        # Eight segments per frame reach the gateway within microseconds,
        # far faster than its 1 ms per packet.
        cbr = CbrFlow(
            net, "a", "b", frame_bytes=8 * 1460, interval=4e-3, n_frames=3,
            ip=ClassicalIP(1500), name="video", drain_timeout=0.1,
        )
        seen = []
        # At 2.5 ms two packets are forwarded, the third is in service
        # until 3 ms and five wait: the crash flushes those five.
        env.call_at(2.5e-3, gw.crash)
        env.call_at(2.6e-3, lambda: seen.append(gw.dropped))
        env.call_at(3.1e-3, lambda: seen.append(gw.dropped))
        # The second frame (4 ms) arrives at a dead gateway; the third
        # (8 ms) after the restart.
        env.call_at(6e-3, gw.restart)
        cbr.run()
        sampler.stop()
        assert seen == [5, 6]
        assert gw.dropped == 5 + 1 + 8
        assert gw.drop_reasons == {"gateway_down": 14}
        assert gw.flow_drops == {"video": 14}
        assert gw.forwarded == 2 + 8
        assert (
            reg.value("netsim.gateway.drops", gateway="gw", reason="gateway_down")
            == gw.drop_reasons["gateway_down"]
        )
        assert (
            reg.value(
                "netsim.gateway.flow_drops",
                gateway="gw",
                reason="gateway_down",
                flow="video",
            )
            == gw.flow_drops["video"]
        )
        # The drop series appear at the first tick after the crash.
        buf = sampler.buffer(
            "netsim.gateway.drops", gateway="gw", reason="gateway_down"
        )
        t, v = next(iter(buf))
        assert 2.5e-3 < t < 3e-3 and v == 5.0
        sent = net.links["a--gw"].flow_tx_packets["a"]["video"]
        delivered = net.links["gw--b"].flow_tx_packets["gw"]["video"]
        assert sent == 3 * 8
        assert delivered == cbr._segments_received == gw.flow_forwarded["video"]
        assert sent == delivered + gw.flow_drops["video"]


class TestZeroOverheadGuarantee:
    """The ISSUE's regression contract: NullRegistry leaves the hot
    paths untouched and instrumentation never changes simulation
    results."""

    def test_null_registry_installs_nothing(self):
        _, tb_base, _ = lossy_wan_run(None)
        reg = NullRegistry()
        _, tb, bt = lossy_wan_run(reg, sample=False)
        # netsim has no telemetry seam at all: no probe attribute on any
        # simulator object ...
        for obj in [tb.net, *tb.net.links.values(), *tb.net.nodes.values(), bt]:
            assert not hasattr(obj, "probe"), obj
        assert len(reg) == 0  # ... and no series registered either
        # ... and not one extra kernel entry dispatched.
        assert tb.net.env.scheduled_count == tb_base.net.env.scheduled_count
        assert tb.net.env.now == tb_base.net.env.now

    def test_instrumented_run_is_bit_identical(self):
        base, _, _ = lossy_wan_run(None)
        null, _, _ = lossy_wan_run(NullRegistry())
        full, _, _ = lossy_wan_run(MetricsRegistry())
        # same clocks, same byte counts, same recovery event counts
        assert base == null
        assert base == full

    def test_metampi_null_registry_installs_nothing(self):
        mc = MetaMPI()
        assert instrument_runtime(mc, NullRegistry()) is None
        assert mc.runtime.probe is None
        assert not hasattr(mc.runtime.transport, "probe")


class TestFaultAlertRecovery:
    def test_fault_injected_alert_fired_recovery_observed(self):
        """End to end: WAN outage → alert fires → link heals → alert
        resolves → transfer completes through TCP recovery."""
        tb = build_testbed()
        reg = MetricsRegistry()
        instrument_network(tb.net, reg)
        bt = BulkTransfer(tb.net, "t3e-600", "sp2", 40 * MBYTE, ip=IP64K)
        instrument_flow(bt, reg)

        mgr = AlertManager(tb.net.env)
        mgr.watch("wan-down", link_down(tb.wan_link))
        spikes = mgr.watch(
            "wan-rto-spike",
            counter_nonzero(reg.counter("netsim.flow.timeouts", flow=bt.name)),
        )
        sampler = Sampler(tb.net.env, reg, interval=0.05)
        sampler.add_listener(mgr.evaluate)
        sampler.start()

        injector = FaultInjector(tb.net)
        injector.link_down(tb.wan_link, at=0.2, duration=1.0)

        rate = bt.run()
        sampler.stop()

        # fault injected ...
        assert injector.log[0][1] == f"link {tb.wan_link.name} down"
        fault_time = injector.log[0][0]
        # ... alert raised (on the sampling cadence) ...
        history = mgr.history("wan-down")
        assert [e.kind for e in history] == ["fired", "resolved"]
        fired, resolved = history
        assert fault_time <= fired.time <= fault_time + 0.1
        assert 1.2 <= resolved.time <= 1.35
        # ... and recovery observed: the transfer finished afterwards,
        # having actually retransmitted through the outage.
        assert rate > 0
        assert bt.timeouts > 0
        assert spikes.fired_count >= 1
        assert "wan-down" not in mgr.firing  # the outage itself healed
        assert tb.net.env.now > resolved.time

    def test_weather_map_reflects_outage(self):
        tb = build_testbed()
        FaultInjector(tb.net).link_down(tb.wan_link, at=0.0)
        tb.net.env.run(until=0.01)
        table = weather_map(tb.net)
        wan_rows = [
            row for row in table.splitlines() if tb.wan_link.name in row
        ]
        assert wan_rows and all("DOWN" in row for row in wan_rows)
        assert "gateway" in table


class TestMetampiProbes:
    def test_per_rank_pair_wan_lan_split(self):
        tb = build_testbed()
        mc = MetaMPI(testbed=tb)
        mc.add_machine(CRAY_T3E_600, ranks=2)
        mc.add_machine(IBM_SP2, ranks=1)
        reg = MetricsRegistry()
        instrument_runtime(mc, reg)

        def main(comm):
            if comm.rank == 0:
                comm.send(b"x" * 1000, dest=1, tag=1)  # same machine
                comm.send(b"y" * 2000, dest=2, tag=2)  # across the WAN
                return None
            return comm.recv(source=0)

        mc.run(main)
        assert reg.value("metampi.messages", src="0", dst="1", scope="intra") == 1
        assert reg.value("metampi.messages", src="0", dst="2", scope="wan") == 1
        assert reg.value("metampi.bytes", src="0", dst="2", scope="wan") >= 2000
        # WAN vs LAN split is queryable as totals too
        wan_msgs = sum(
            s.value
            for s in reg.series("counter")
            if s.name == "metampi.messages" and s.labels["scope"] == "wan"
        )
        assert wan_msgs >= 1

    def test_transport_retry_and_error_counters(self):
        tb = build_testbed()
        tb.wan_link.set_up(False)
        tm = TransportModel(
            net=tb.net, retry=RetryPolicy(max_attempts=3, backoff=0.01)
        )
        reg = MetricsRegistry()
        instrument_runtime(Runtime(transport=tm), reg)
        with pytest.raises(TransportError):
            tm.wan("t3e-600", "sp2")
        assert reg.value(
            "metampi.transport.retries", src="t3e-600", dst="sp2"
        ) == 2  # max_attempts - 1 backoff rounds
        assert reg.value("metampi.transport.errors") == 1


class TestFlowDropSurfacing:
    """PR 1 left loss counters as scattered attributes; they now land in
    the registry under typed drop-reason labels."""

    def _two_hosts(self, rate=1e6, queue_packets=float("inf")):
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        net.add(Host(env, "b"))
        net.link("a", "b", rate, queue_packets=queue_packets)
        return net

    def test_ping_lost_echoes(self):
        net = self._two_hosts()
        reg = MetricsRegistry()
        ping = PingFlow(net, "a", "b", count=5, interval=1e-3, deadline=0.1)
        instrument_flow(ping, reg)
        FaultInjector(net).link_down(("a", "b"), at=0.0021)
        ping.run()
        assert ping.lost > 0
        assert (
            reg.value("netsim.flow.drops", flow=ping.name, reason="lost_echo")
            == ping.lost
        )

    def test_cbr_lost_frames(self):
        net = self._two_hosts(rate=1e6, queue_packets=2)
        reg = MetricsRegistry()
        instrument_network(net, reg)
        cbr = CbrFlow(
            net,
            "a",
            "b",
            frame_bytes=50_000,
            interval=0.01,
            n_frames=10,
            drain_timeout=2.0,
        )
        instrument_flow(cbr, reg)
        cbr.run()
        assert cbr.frames_lost > 0  # the link is oversubscribed 40x
        assert (
            reg.value("netsim.flow.drops", flow=cbr.name, reason="lost_frame")
            == cbr.frames_lost
        )
        # the queue-full drops carry their own typed reason on the link
        link = net.links["a--b"]
        assert link.drop_reasons.get("queue_full", 0) > 0
        assert (
            reg.value(
                "netsim.link.drops", link="a--b", direction="a", reason="queue_full"
            )
            == link.drop_reasons["queue_full"]
        )

    def test_no_route_drops_counted(self):
        net = self._two_hosts()
        reg = MetricsRegistry()
        instrument_network(net, reg)
        ping = PingFlow(net, "a", "b", count=3, interval=1e-3, deadline=0.05)
        net.links["a--b"].set_up(False)
        ping.run()
        assert net.no_route_drops > 0
        assert reg.value("netsim.route.drops", reason="no_route") == (
            net.no_route_drops
        )


class TestFireProbes:
    def test_pipeline_stage_histograms(self):
        reg = MetricsRegistry()
        pipe = FirePipeline(PipelineConfig(n_images=6))
        instrument_pipeline(pipe, reg)
        report = pipe.run()
        assert len(report.records) == 6
        t3e = reg.get("fire.stage.seconds", stage="t3e")
        assert t3e.count == 6
        assert t3e.mean == pytest.approx(pipe.t3e_time, rel=1e-6)
        total = reg.get("fire.stage.seconds", stage="total")
        assert total.count == 6
        assert total.min >= pipe.t3e_time
        assert reg.value("fire.images") == 6

    def test_pipelined_mode_also_observed(self):
        reg = MetricsRegistry()
        pipe = FirePipeline(PipelineConfig(n_images=5, pipelined=True))
        instrument_pipeline(pipe, reg)
        pipe.run()
        assert reg.get("fire.stage.seconds", stage="total").count == 5

    def test_rt_client_frame_probe(self):
        reg = MetricsRegistry()
        scanner = SimulatedScanner(
            HeadPhantom(), ScannerConfig(n_frames=8, noise_sigma=3.0)
        )
        client = RTClient(RTServer(scanner))
        instrument_rt_client(client, reg)
        client.run(4)
        assert reg.value("fire.rt.frames") == 4
        hist = reg.get("fire.rt.frame_seconds")
        assert hist.count == 4
        assert hist.min > 0.0  # real wall-clock cost of the chain
