"""Built-in scenario functions for the paper's measurement axes.

Each function is a pure mapping from a :class:`ScenarioSpec` to a flat
metrics dict, deterministic given ``spec.seed`` — the simulators are
discrete-event and all randomness (loss processes) is seeded from the
spec, so a scenario's result is a function of its content hash.  That
property is what makes pooled and inline runs agree exactly.
"""

from __future__ import annotations

import random
import time
from typing import Any

from repro.harness.registry import scenario
from repro.harness.spec import ScenarioSpec
from repro.util.units import MBYTE


@scenario("hippi_raw")
def hippi_raw(spec: ScenarioSpec) -> dict[str, Any]:
    """HiPPI low-level throughput for one block size (Section 2)."""
    from repro.netsim.hippi import raw_block_throughput

    block = int(spec.get("block_bytes", 1 * MBYTE))
    return {"throughput_mbps": raw_block_throughput(block) / 1e6}


def _testbed(spec: ScenarioSpec):
    from repro.netsim import build_testbed

    return build_testbed(oc48=bool(spec.get("oc48", True)))


def _ip(spec: ScenarioSpec):
    from repro.netsim import ClassicalIP
    from repro.netsim.ip import TESTBED_MTU

    return ClassicalIP(int(spec.get("mtu", TESTBED_MTU)))


@scenario("wan_bulk_transfer")
def wan_bulk_transfer(spec: ScenarioSpec) -> dict[str, Any]:
    """A bulk TCP transfer across the testbed, with optional seeded
    random loss and/or a mid-transfer WAN outage (Sections 2 and 4)."""
    from repro.netsim import BulkTransfer, FaultInjector

    tb = _testbed(spec)
    src = str(spec.get("src", "t3e-600"))
    dst = str(spec.get("dst", "sp2"))
    nbytes = int(spec.get("mbytes", 40)) * MBYTE
    loss_rate = float(spec.get("loss_rate", 0.0))
    outage_at = spec.get("outage_at")
    outage_len = spec.get("outage_len")

    if loss_rate > 0.0:
        FaultInjector(tb.net, seed=spec.seed).random_loss(
            tb.wan_link, loss_rate, direction="sw-juelich"
        )
    if outage_at is not None:
        FaultInjector(tb.net).link_down(
            tb.wan_link, at=float(outage_at), duration=float(outage_len or 1.0)
        )

    bt = BulkTransfer(tb.net, src, dst, nbytes, ip=_ip(spec))
    goodput = bt.run()
    return {
        "goodput_mbps": goodput / 1e6,
        "retransmits": bt.retransmits,
        "timeouts": bt.timeouts,
        "elapsed_s": tb.net.env.now,
    }


@scenario("path_characterization")
def path_characterization(spec: ScenarioSpec) -> dict[str, Any]:
    """Per-stage path analysis: steady TCP rate, bottleneck stage, and
    the WAN wire's share of the per-packet time (Figure 1)."""
    from repro.netsim.tcp import characterize_path, tcp_steady_throughput

    tb = _testbed(spec)
    src = str(spec.get("src", "t3e-600"))
    dst = str(spec.get("dst", "sp2"))
    ip = _ip(spec)
    char = characterize_path(tb.net, src, dst, ip)
    wan_stages = [v for k, v in char.stages.items() if k.startswith("wan-")]
    return {
        "steady_mbps": tcp_steady_throughput(tb.net, src, dst, ip) / 1e6,
        "bottleneck": char.bottleneck_stage,
        "wan_wire_share": (
            wan_stages[0] / char.per_packet_time if wan_stages else 0.0
        ),
    }


@scenario("loss_bound")
def loss_bound(spec: ScenarioSpec) -> dict[str, Any]:
    """The Mathis-style loss bound for a path/loss-rate point."""
    from repro.netsim.tcp import tcp_loss_throughput_bound

    tb = _testbed(spec)
    bound = tcp_loss_throughput_bound(
        tb.net,
        str(spec.get("src", "t3e-600")),
        str(spec.get("dst", "sp2")),
        _ip(spec),
        float(spec.get("loss_rate", 0.0)),
    )
    return {"bound_mbps": bound / 1e6}


@scenario("wan_contention")
def wan_contention(spec: ScenarioSpec) -> dict[str, Any]:
    """The paper's concurrent application mix on the shared backbone
    (Sections 2-3): bulk transfers, the 270 Mbit/s D1 video stream and
    latency-sensitive ping traffic all crossing the Jülich ↔ Sankt
    Augustin path at once, with the DRR link/gateway schedulers
    arbitrating.  Reports measured per-flow goodput next to the
    closed-form :func:`~repro.netsim.tcp.fair_share_throughputs`
    prediction; ``fair_dev_max`` is the worst relative deviation of the
    bulk flows from the model (startup/teardown transients and
    asymmetric finish times keep it nonzero for unequal mixes).
    """
    from repro.netsim import BulkTransfer, CbrFlow, PingFlow
    from repro.netsim.tcp import fair_share_throughputs

    tb = _testbed(spec)
    net = tb.net
    ip = _ip(spec)
    mbytes = int(spec.get("mbytes", 20))
    n_bulk = int(spec.get("n_bulk", 2))
    window = int(spec.get("window_mbytes", 8)) * MBYTE

    pairs = [
        ("t3e-600", "sp2"),
        ("t3e-1200", "e500-gmd"),
        ("t90", "onyx2-gmd"),
    ][:n_bulk]
    bulks = [
        BulkTransfer(
            net,
            src,
            dst,
            mbytes * MBYTE,
            ip=ip,
            window_bytes=window,
            name=f"bulk-{src}",
        )
        for src, dst in pairs
    ]
    video = None
    if bool(spec.get("video", True)):
        # Uncompressed D1: 270 Mbit/s at 25 frames/s.
        video = CbrFlow(
            net,
            "onyx2-juelich",
            "onyx2-gmd",
            frame_bytes=1_350_000,
            interval=0.04,
            n_frames=int(spec.get("frames", 50)),
            ip=ip,
            name="d1-video",
        )
    ping = None
    if bool(spec.get("ping", True)):
        ping = PingFlow(
            net, "frontend", "e500-gmd", count=20, interval=0.05, name="ping"
        )

    for bt in bulks:
        net.env.run(until=bt.done)
    if video is not None:
        net.env.run(until=video.done)
    if ping is not None:
        net.env.run(until=ping.done)

    model = fair_share_throughputs(
        net, bulks + ([video] if video is not None else [])
    )
    out: dict[str, Any] = {}
    devs = []
    for bt in bulks:
        measured = bt.throughput / 1e6
        predicted = model[bt.name] / 1e6
        out[f"goodput_{bt.name}_mbps"] = measured
        out[f"model_{bt.name}_mbps"] = predicted
        out[f"retransmits_{bt.name}"] = bt.retransmits
        devs.append(abs(measured - predicted) / predicted)
    out["fair_dev_max"] = max(devs)
    if video is not None:
        out["video_delivered_mbps"] = video.delivered_rate / 1e6
        out["video_bad_frames"] = video.frames_late + video.frames_lost
    if ping is not None:
        out["ping_rtt_ms"] = ping.rtt.mean * 1e3
        out["ping_lost"] = ping.lost
    wan = tb.wan_link
    out["wan_flow_drops"] = sum(
        sum(per_flow.values()) for per_flow in wan.flow_drops.values()
    )
    out["elapsed_s"] = net.env.now
    return out


@scenario("t3e_scaling")
def t3e_scaling(spec: ScenarioSpec) -> dict[str, Any]:
    """Table-1 model point: FIRE module times on the T3E for one PE
    count and image size."""
    from repro.machines.t3e_model import REF_VOXELS, default_model

    model = default_model()
    pes = int(spec.get("pes", 1))
    voxels = int(spec.get("voxels", REF_VOXELS))
    return {
        "total_s": model.total_time(pes, voxels),
        "speedup": model.speedup(pes, voxels),
        "rvo_s": model.rvo.time(pes, voxels),
        "motion_s": model.motion.time(pes, voxels),
        "filter_s": model.filter.time(pes, voxels),
    }


@scenario("kernel_bench")
def kernel_bench(spec: ScenarioSpec) -> dict[str, Any]:
    """Discrete-event kernel micro-benchmark (WAN bulk transfer).

    Reports the kernel work a transfer costs — ``events_scheduled``,
    ``link_packets``, ``segments`` and ``heap_peak`` (the most entries
    the event heap held between two dispatches) — and the simulated
    ``goodput_mbps``.  All are pure functions of the spec, so a kernel
    change that alters scheduling volume or simulated results fails the
    gate.  The transfer is driven by ``env.step()`` so the heap can be
    read between dispatches; host time per packet is perfbench's.
    """
    from repro.netsim import BulkTransfer

    tb = _testbed(spec)
    bt = BulkTransfer(
        tb.net,
        str(spec.get("src", "sp2")),
        str(spec.get("dst", "t3e-600")),
        int(spec.get("mbytes", 8)) * MBYTE,
        ip=_ip(spec),
    )
    env = tb.env
    heap_peak = env.heap_depth
    while not bt.done.processed:
        env.step()
        heap_peak = max(heap_peak, env.heap_depth)
    return {
        "events_scheduled": env.scheduled_count,
        "link_packets": sum(
            sum(link.tx_packets.values()) for link in tb.net.links.values()
        ),
        "segments": bt.segments_delivered,
        "goodput_mbps": bt.throughput / 1e6,
        "heap_peak": heap_peak,
    }


@scenario("collectives_ablation")
def collectives_ablation(spec: ScenarioSpec) -> dict[str, Any]:
    """Collective-strategy ablation on the simulated two-site testbed.

    Runs one of the paper's exchange patterns under every registered
    collective strategy and reports, per strategy, the completion time
    and the WAN traffic it generated:

    * ``allreduce`` — the coupled-model global sum (ring fast path
      territory: large contiguous int64 field);
    * ``coupler`` — the MOM-2/IFS flux-coupler step: a buffer
      ``Allreduce`` of the flux field plus a ``Bcast`` of the coupled
      correction each step;
    * ``trace`` — the TRACE/PARTRACE coupling step: the flow solver's
      velocity-field ``Bcast`` to the particle ranks plus a
      personalized ``alltoall`` of per-destination boundary strips.

    Every round ends in a barrier.  That keeps all rank clocks equal at
    each round start, which makes the virtual completion time
    schedule-independent: concurrent WAN sends from *equal* clocks fill
    the serialized channel back-to-back, so the round's final
    ``max``-arrival is the same whatever order the OS scheduled the
    rank threads in.

    Payloads are integer-valued so every strategy must produce exactly
    identical results (``results_identical``); ``hier_over_naive`` is
    the hierarchical/naive completion-time ratio (< 1 means the
    topology-aware algorithms win, the paper's Section-3 claim).
    """
    import numpy as np

    from repro.machines import CRAY_T3E_600, IBM_SP2
    from repro.metampi import MetaMPI, SUM
    from repro.metampi.collectives import STRATEGIES
    from repro.netsim import build_testbed

    pattern = str(spec.get("pattern", "allreduce"))
    ranks_a = int(spec.get("ranks_a", 3))
    ranks_b = int(spec.get("ranks_b", 2))
    elems = int(spec.get("payload_kb", 64)) * 1024 // 8  # int64 elements
    rounds = int(spec.get("rounds", 4))

    def main(comm):
        n = comm.size
        checksum = 0
        if pattern == "allreduce":
            field = np.full(elems, comm.rank + 1, dtype=np.int64)
            for _ in range(rounds):
                total = comm.allreduce(field, op=SUM)
                checksum += int(np.asarray(total)[0])
                comm.barrier()
        elif pattern == "coupler":
            flux = np.arange(elems, dtype=np.int64) * (comm.rank + 1)
            coupled = np.zeros(elems, dtype=np.int64)
            for _ in range(rounds):
                comm.Allreduce(flux, coupled, op=SUM)
                correction = coupled // n if comm.rank == 0 else np.zeros(
                    elems, dtype=np.int64
                )
                comm.Bcast(correction, root=0)
                checksum += int(correction[-1])
                comm.barrier()
        elif pattern == "trace":
            strip = max(1, elems // n)
            velocity = (
                np.arange(elems, dtype=np.int64)
                if comm.rank == 0
                else np.zeros(elems, dtype=np.int64)
            )
            for _ in range(rounds):
                comm.Bcast(velocity, root=0)
                boundary = [
                    np.full(strip, comm.rank * n + d, dtype=np.int64)
                    for d in range(n)
                ]
                incoming = comm.alltoall(boundary)
                checksum += int(velocity[-1]) + int(
                    sum(int(part[0]) for part in incoming)
                )
                comm.barrier()
        else:
            raise ValueError(f"unknown pattern {pattern!r}")
        return checksum

    out: dict[str, Any] = {}
    checksums = {}
    elapsed = {}
    for strat in sorted(STRATEGIES):
        # A fresh testbed per run: WAN costs come from the simulated
        # Jülich ↔ Sankt Augustin path, not the generic default.
        mc = MetaMPI(
            testbed=build_testbed(), wallclock_timeout=120.0, strategy=strat
        )
        mc.add_machine(CRAY_T3E_600, ranks=ranks_a)
        mc.add_machine(IBM_SP2, ranks=ranks_b)
        results = mc.run(main)
        checksums[strat] = tuple(r.value for r in results)
        elapsed[strat] = mc.elapsed
        wan_msgs = wan_bytes = 0
        for scopes in mc.runtime.traffic_summary().values():
            wan = scopes.get("wan")
            if wan is not None:
                wan_msgs += wan["messages"]
                wan_bytes += wan["bytes"]
        out[f"elapsed_ms_{strat}"] = elapsed[strat] * 1e3
        out[f"wan_messages_{strat}"] = wan_msgs
        out[f"wan_bytes_{strat}"] = wan_bytes
    out["results_identical"] = float(len(set(checksums.values())) == 1)
    out["hier_over_naive"] = elapsed["hierarchical"] / elapsed["naive"]
    return out


def _workload(spec: ScenarioSpec):
    """The shared heavy-tailed workload of the fluid scenarios: Poisson
    sessions over the testbed's cross-site pairs, bounded-Pareto sizes,
    a diurnal curve compressed to simulation scale."""
    from repro.fluid import BoundedPareto, WorkloadGenerator
    from repro.util.units import KBYTE, MBYTE

    pairs = [
        ("t3e-600", "sp2"),
        ("t3e-1200", "e500-gmd"),
        ("t90", "onyx2-gmd"),
        ("sp2", "t3e-600"),
    ]
    return WorkloadGenerator(
        pairs[: int(spec.get("n_pairs", 4))],
        n_sessions=int(spec.get("sessions", 2000)),
        session_rate=float(spec.get("session_rate", 40.0)),
        seed=spec.seed,
        sizes=BoundedPareto(
            shape=float(spec.get("pareto_shape", 1.3)),
            lo=int(spec.get("size_lo_kb", 256)) * KBYTE,
            hi=int(spec.get("size_hi_mb", 64)) * MBYTE,
        ),
        diurnal_amplitude=float(spec.get("diurnal_amplitude", 0.3)),
        diurnal_period=float(spec.get("diurnal_period", 60.0)),
    )


@scenario("fluid_wan")
def fluid_wan(spec: ScenarioSpec) -> dict[str, Any]:
    """The heavy-tailed "millions of users" scenario on the pure fluid
    engine: an open-loop Poisson/Pareto/diurnal workload drains through
    the max-min water-filling with no packets at all, so thousands of
    sessions complete in seconds of wall clock.

    ``schedule_sha`` pins the workload generator's determinism contract
    (same seed ⇒ bit-identical schedule across Python versions and
    serial/process-pool runs); FCT statistics, mean/peak concurrency, WAN
    utilization and the re-solve count are pure functions of the spec.
    Host time per flow is measured by perfbench's ``fluid_day``.
    """
    from repro.fluid import FluidEngine
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.probes import instrument_fluid
    from repro.util.units import MBYTE

    tb = _testbed(spec)
    wg = _workload(spec)
    registry = MetricsRegistry()
    eng = FluidEngine(
        tb.net,
        ip=_ip(spec),
        window_bytes=int(spec.get("window_mbytes", 8)) * MBYTE,
    )
    instrument_fluid(eng, registry)
    eng.offer(wg.schedule())
    eng.run()

    out: dict[str, Any] = {
        "schedule_sha": wg.digest(),
        "arrived": eng.arrived,
        "completed": len(eng.completed),
        "resolves": eng.resolves,
        "peak_active": eng.peak_active,
        "mean_active": eng.mean_active(),
        "sim_end_s": eng.now,
        "wan_util_ju_to_gmd": eng.mean_utilization(
            f"link:{tb.wan_link.name}:sw-juelich"
        ),
        "wan_util_gmd_to_ju": eng.mean_utilization(
            f"link:{tb.wan_link.name}:sw-gmd"
        ),
    }
    for key, value in eng.fct_stats().items():
        out[f"fct_{key}_s"] = value
    # The counters read the engine's own tallies, so this holds by
    # construction; kept because the hybrid baseline pins it.
    out["probe_consistent"] = int(
        registry.counter("fluid.flows.completed").value == len(eng.completed)
        and registry.counter("fluid.resolves").value == eng.resolves
    )
    return out


@scenario("hybrid_wan")
def hybrid_wan(spec: ScenarioSpec) -> dict[str, Any]:
    """Fluid bulk traffic and latency-sensitive packet flows sharing the
    backbone: the heavy-tailed workload runs on the fluid engine while a
    ping probe and the D1 video stream stay packet-level, seeing the
    fluid load as stretched serialization through the background seam.

    ``ping_rtt_inflation`` (loaded RTT over the unloaded reference RTT,
    ≥ 1) is the quantity the hybrid exists to measure: what bulk load
    does to interactive latency — the paper's Section-3 concern — at a
    scale no packet simulation reaches.
    """
    from repro.fluid import HybridSimulation
    from repro.netsim import CbrFlow, PingFlow
    from repro.util.units import MBYTE

    tb = _testbed(spec)
    ip = _ip(spec)
    hyb = HybridSimulation(
        tb.net,
        ip=ip,
        window_bytes=int(spec.get("window_mbytes", 8)) * MBYTE,
    )

    ping = PingFlow(
        tb.net,
        "frontend",
        "e500-gmd",
        count=int(spec.get("pings", 40)),
        interval=0.05,
        name="ping",
    )
    hyb.add_packet_flow(ping)
    video = None
    if bool(spec.get("video", True)):
        video = CbrFlow(
            tb.net,
            "onyx2-juelich",
            "onyx2-gmd",
            frame_bytes=1_350_000,
            interval=0.04,
            n_frames=int(spec.get("frames", 25)),
            ip=ip,
            name="d1-video",
        )
        hyb.add_packet_flow(video)

    # Unloaded reference: the identical ping on an idle testbed — the
    # honest denominator for the inflation figure (a characterize_path
    # RTT would price full segments, not 16-byte probes).
    ref_tb = _testbed(spec)
    ref_ping = PingFlow(
        ref_tb.net,
        "frontend",
        "e500-gmd",
        count=int(spec.get("pings", 40)),
        interval=0.05,
        name="ping",
    )
    ref_tb.net.env.run()
    ref_rtt = ref_ping.rtt.mean

    wg = _workload(spec)
    hyb.offer(wg.schedule())
    hyb.drain()

    eng = hyb.engine
    out: dict[str, Any] = {
        "schedule_sha": wg.digest(),
        "completed": len(eng.completed),
        "resolves": eng.resolves,
        "peak_active": eng.peak_active,
        "peak_background": hyb.peak_background,
        "ping_rtt_ms": ping.rtt.mean * 1e3,
        "ping_rtt_inflation": (
            ping.rtt.mean / ref_rtt if ref_rtt > 0 else 1.0
        ),
        "ping_lost": ping.lost,
    }
    for key, value in eng.fct_stats().items():
        out[f"fct_{key}_s"] = value
    if video is not None:
        out["video_delivered_mbps"] = video.delivered_rate / 1e6
        out["video_bad_frames"] = video.frames_late + video.frames_lost
    return out


@scenario("fluid_vs_packet")
def fluid_vs_packet(spec: ScenarioSpec) -> dict[str, Any]:
    """The hybrid engine's validity gate: on scales both engines can
    reach, fluid and packet results must agree.

    Runs 1..n concurrent bulk transfers from distinct sources across
    the shared GMD attachment twice — packet-level
    :class:`~repro.netsim.flows.BulkTransfer` and fluid — and reports
    the worst relative disagreement in per-flow completion time and
    goodput over the whole grid.  ``within_5pct`` is pinned exactly by
    the baseline: the CI contract that the fluid approximation stays
    inside the same 5% envelope the max-min model was validated to in
    the contention sweep.  Distinct sources matter: same-host flows
    contend on the sender stack in ways outside the fluid model's
    validity envelope (see DESIGN — hybrid engine).
    """
    from repro.netsim import BulkTransfer
    from repro.fluid import FluidEngine
    from repro.util.units import MBYTE

    ip = _ip(spec)
    mbytes = int(spec.get("mbytes", 16))
    window = int(spec.get("window_mbytes", 8)) * MBYTE
    max_flows = int(spec.get("max_flows", 3))
    sources = ["t3e-600", "t3e-1200", "t90"][:max_flows]
    dst = str(spec.get("dst", "e500-gmd"))

    fct_err = 0.0
    gp_err = 0.0
    for n in range(1, max_flows + 1):
        tb = _testbed(spec)
        flows = [
            BulkTransfer(
                tb.net,
                sources[i],
                dst,
                mbytes * MBYTE,
                ip=ip,
                window_bytes=window,
                name=f"b{i}",
            )
            for i in range(n)
        ]
        tb.net.env.run()
        packet = {
            f.name: (f.end_time - f.start_time, f.throughput) for f in flows
        }

        tb2 = _testbed(spec)
        eng = FluidEngine(tb2.net, ip=ip, window_bytes=window)
        for i in range(n):
            eng.schedule_flow(0.0, f"b{i}", sources[i], dst, mbytes * MBYTE)
        eng.run()
        fluid = {f.name: (f.fct, f.mean_rate) for f in eng.completed}

        for name, (p_fct, p_gp) in packet.items():
            f_fct, f_gp = fluid[name]
            fct_err = max(fct_err, abs(f_fct - p_fct) / p_fct)
            gp_err = max(gp_err, abs(f_gp - p_gp) / p_gp)

    return {
        "fct_rel_err_max": fct_err,
        "goodput_rel_err_max": gp_err,
        "within_5pct": int(fct_err < 0.05 and gp_err < 0.05),
        "grid_points": max_flows,
    }


@scenario("ring_availability")
def ring_availability(spec: ScenarioSpec) -> dict[str, Any]:
    """SPring-8-style delivered availability: single vs. redundant dual
    ring under the *identical* seeded outage schedule.

    Builds the same site ring twice — ``rings=1`` and ``rings=2`` — and
    replays one :meth:`FaultInjector.outage_schedule` drawn over the
    first ring's trunks (those link names exist in both topologies, so
    both suffer the same cut history).  Each site streams a CBR "control
    video" to the site across the ring with a playout deadline, so a
    frame that survives a reroute but arrives late still counts as a
    playout miss.  Link-down alerts fire on the sampling cadence, as an
    operator console would see them.

    Everything is deterministic, so the baseline pins the metrics
    exactly — including ``dual_strictly_better``, the CI gate that the
    redundant ring delivers strictly higher availability than the
    single ring under the same outages.
    """
    from repro.netsim import CbrFlow, FaultInjector, PingFlow, build_ring
    from repro.telemetry.alerts import AlertManager, link_down
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.probes import instrument_network
    from repro.telemetry.timeseries import Sampler

    sites = int(spec.get("sites", 4))
    outages = int(spec.get("outages", 5))
    horizon = float(spec.get("horizon", 2.0))
    frames = int(spec.get("frames", 60))
    frame_kb = int(spec.get("frame_kb", 100))
    interval = float(spec.get("interval", 0.04))
    playout = float(spec.get("playout_deadline", 0.25))

    out: dict[str, Any] = {}
    for rings, label in ((1, "single"), (2, "dual")):
        tb = build_ring(sites, rings=rings)
        net, env = tb.net, tb.env
        registry = MetricsRegistry()
        instrument_network(net, registry)

        ring0 = [name for name in tb.trunks if name.startswith("ring0-")]
        manager = AlertManager(env)
        for name in ring0:
            manager.watch(f"outage:{name}", link_down(net.links[name]))
        sampler = Sampler(env, registry, interval=interval / 2)
        sampler.add_listener(manager.evaluate)
        sampler.start()

        injector = FaultInjector(net, seed=spec.seed)
        schedule = injector.outage_schedule(
            ring0,
            horizon=horizon,
            outages=outages,
            min_duration=horizon / 6,
            max_duration=horizon / 2.5,
        )

        names = list(tb.sites)
        half = len(names) // 2
        flows = [
            CbrFlow(
                net,
                tb.site_hosts(site)[0],
                tb.site_hosts(names[(i + half) % len(names)])[-1],
                frame_bytes=frame_kb * 1024,
                interval=interval,
                n_frames=frames,
                playout_deadline=playout,
                name=f"cbr-{site}",
            )
            for i, site in enumerate(names)
        ]
        ping = PingFlow(
            net,
            tb.site_hosts(names[0])[0],
            tb.site_hosts(names[half])[0],
            count=int(horizon / interval),
            interval=interval,
            deadline=playout,
        )
        # The sampler reschedules itself forever, so run to the flows'
        # completion events rather than to event-queue exhaustion.
        for flow in flows:
            env.run(until=flow.done)
        env.run(until=ping.done)
        sampler.stop()

        expected = frames * len(flows)
        delivered = sum(f.frames_received for f in flows)
        fired = sum(1 for e in manager.history() if e.kind == "fired")
        out[f"availability_{label}"] = delivered / expected
        out[f"frames_late_{label}"] = sum(f.frames_late for f in flows)
        out[f"frames_lost_{label}"] = sum(f.frames_lost for f in flows)
        out[f"reroutes_{label}"] = net.reroutes
        out[f"ping_lost_{label}"] = ping.lost
        out[f"alerts_fired_{label}"] = fired
        out[f"outage_windows_{label}"] = len(schedule)

    out["dual_strictly_better"] = int(
        out["availability_dual"] > out["availability_single"]
    )
    return out


@scenario("grid_staging")
def grid_staging(spec: ScenarioSpec) -> dict[str, Any]:
    """KEK-style bulk staging across a multi-site grid.

    Every outlying site of an R×C grid stages a bulk dataset to the
    tier-0 site ``s00`` concurrently.  Optionally a trunk on the
    dominant ingress path is cut mid-run (``outage_at``); the min-cost
    routing re-resolves onto a surviving grid path and the transfers
    complete instead of stalling — ``stalled`` stays 0 and the baseline
    pins it.
    """
    from repro.netsim import BulkTransfer, FaultInjector, TransferStalled, build_grid

    rows = int(spec.get("rows", 2))
    cols = int(spec.get("cols", 2))
    mbytes = int(spec.get("mbytes", 8))
    outage_at = spec.get("outage_at")
    outage_len = float(spec.get("outage_len", 0.3))

    tb = build_grid(rows, cols)
    net, env = tb.net, tb.env
    sink_hosts = tb.site_hosts("s00")

    transfers = []
    for i, site in enumerate(sorted(s for s in tb.sites if s != "s00")):
        transfers.append(
            BulkTransfer(
                net,
                tb.site_hosts(site)[0],
                sink_hosts[i % len(sink_hosts)],
                mbytes * MBYTE,
                ip=_ip(spec),
                name=f"stage-{site}",
            )
        )
    if outage_at is not None:
        FaultInjector(net, seed=spec.seed).link_down(
            "trunk-s00--s01", at=float(outage_at), duration=outage_len
        )
    env.run()

    out: dict[str, Any] = {
        "elapsed_s": env.now,
        "n_stagers": len(transfers),
        "stalled": sum(
            1
            for t in transfers
            if isinstance(t.done.value, TransferStalled)
        ),
        "failovers": sum(t.failovers for t in transfers),
        "retransmits": sum(t.retransmits for t in transfers),
        "reroutes": net.reroutes,
        "alt_paths_corner": len(
            net.equal_cost_paths("sw-s00", f"sw-s{rows - 1}{cols - 1}")
        ),
    }
    agg = 0.0
    for t in transfers:
        rate = t.throughput if not isinstance(t.done.value, Exception) else 0.0
        out[f"goodput_{t.name}_mbps"] = rate / 1e6
        agg += rate
    out["goodput_total_mbps"] = agg / 1e6
    return out


@scenario("demo")
def demo(spec: ScenarioSpec) -> dict[str, Any]:
    """Synthetic scenario for harness self-tests and docs examples.

    Sleeps ``duration`` seconds (parallelism shows up as wall-clock
    speedup regardless of core count), optionally hangs (for timeout
    tests), and reports a value derived only from the spec seed.
    """
    duration = float(spec.get("duration", 0.0))
    if spec.get("hang"):
        time.sleep(3600.0)
    if spec.get("fail"):
        raise RuntimeError("demo scenario asked to fail")
    if duration > 0:
        time.sleep(duration)
    rng = random.Random(spec.seed)
    n = int(spec.get("n", 100))
    value = sum(rng.random() for _ in range(n)) / n
    return {"value": value, "slept_s": duration}
