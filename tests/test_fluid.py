"""The fluid/packet hybrid engine: workload determinism, analytic
correctness against the closed-form TCP model, fluid-vs-packet
cross-validation, and the background-load coupling seams.

The determinism contract is the load-bearing piece: the workload
generator must produce bit-identical schedules for a given seed across
Python versions (3.10-3.12 run in CI) and across serial vs. pooled
harness execution — the ``hybrid`` sweep baseline pins the schedule
digest, and these tests pin the mechanism behind it.  The solver and
engine digests are one value on every Python line too: every float sum
on the fluid path adds left to right, never through the builtin
``sum``, which is compensated from 3.12 on.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys

import pytest

from repro.fluid import (
    BoundedPareto,
    CompletedFlow,
    FlowArrival,
    FluidEngine,
    HybridSimulation,
    WorkloadGenerator,
    diurnal_factor,
)
from repro.netsim import (
    BulkTransfer,
    ClassicalIP,
    FaultInjector,
    Host,
    Network,
    PingFlow,
    Switch,
    build_testbed,
)
from repro.netsim.ip import TESTBED_MTU
from repro.netsim.tcp import tcp_steady_throughput
from repro.sim import Environment

MB = 1024 * 1024
PAIRS = [("t3e-600", "sp2"), ("t90", "onyx2-gmd")]


def _generator(seed=42, **kw):
    kw.setdefault("n_sessions", 300)
    kw.setdefault("session_rate", 25.0)
    return WorkloadGenerator(PAIRS, seed=seed, **kw)


# -- workload generator ------------------------------------------------------

class TestWorkloadDeterminism:
    def test_same_seed_identical_schedule(self):
        a, b = _generator(), _generator()
        assert a.schedule() == b.schedule()
        assert a.digest() == b.digest()

    def test_different_seed_different_schedule(self):
        assert _generator(seed=1).digest() != _generator(seed=2).digest()

    def test_golden_digest(self):
        """The digest pinned across interpreter versions: if this moves,
        every committed hybrid baseline moves with it."""
        wg = _generator(seed=42)
        assert wg.digest() == (
            "d96b77544fa2a42b99c45485cc1a3d74da9c1b422a35c40fcfefac437812083c"
        )

    def test_diurnal_schedule_deterministic(self):
        a = _generator(diurnal_amplitude=0.4, diurnal_period=30.0)
        b = _generator(diurnal_amplitude=0.4, diurnal_period=30.0)
        assert a.digest() == b.digest()

    def test_times_quantized_to_microseconds(self):
        for arrival in _generator().schedule():
            assert arrival.at == round(arrival.at * 1e6) / 1e6

    def test_arrivals_ordered_and_sized(self):
        sched = _generator().schedule()
        sizes = BoundedPareto()
        assert all(a.at <= b.at for a, b in zip(sched, sched[1:]))
        assert all(sizes.lo <= a.nbytes <= sizes.hi for a in sched)
        assert len({a.name for a in sched}) == len(sched)

    def test_serial_and_pooled_sweep_runs_agree(self):
        """The schedule digest (and every other fluid metric) must be
        identical whether scenarios run inline or in pool workers."""
        from repro.harness import SweepRunner, make_spec

        specs = [
            make_spec("fluid_wan", sessions=150, session_rate=25.0),
            make_spec("fluid_wan", sessions=150, session_rate=25.0, oc48=False),
        ]
        serial = SweepRunner(processes=1).run(specs, name="fluid")
        pooled = SweepRunner(processes=2).run(specs, name="fluid")
        assert serial.ok and pooled.ok
        assert serial.metrics() == pooled.metrics()
        assert any(key.endswith("/schedule_sha") for key in serial.metrics())

    def test_input_validation(self):
        with pytest.raises(ValueError):
            WorkloadGenerator([], n_sessions=1, session_rate=1.0, seed=0)
        with pytest.raises(ValueError):
            _generator(n_sessions=0)
        with pytest.raises(ValueError):
            _generator(session_rate=0.0)
        with pytest.raises(ValueError):
            _generator(diurnal_amplitude=1.0)


class TestBoundedPareto:
    def test_inverse_cdf_endpoints(self):
        d = BoundedPareto()
        assert d.sample(0.0) == pytest.approx(d.lo)
        assert d.sample(1.0 - 1e-12) == pytest.approx(d.hi, rel=1e-3)

    def test_mean_matches_monte_carlo_quadrature(self):
        d = BoundedPareto(shape=1.3, lo=1e5, hi=1e8)
        n = 20000
        quad = sum(d.sample((i + 0.5) / n) for i in range(n)) / n
        assert d.mean == pytest.approx(quad, rel=0.01)

    def test_shape_one_special_case(self):
        d = BoundedPareto(shape=1.0, lo=1e5, hi=1e7)
        assert d.lo < d.mean < d.hi

    def test_heavy_tail(self):
        """Most flows are mice; most bytes ride in elephants."""
        d = BoundedPareto(shape=1.3, lo=256 * 1024, hi=1024 * MB)
        assert d.mean > 3 * d.lo  # mean far above the median regime
        assert d.sample(0.5) < d.mean

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedPareto(shape=0.0)
        with pytest.raises(ValueError):
            BoundedPareto(lo=10, hi=10)

    def test_diurnal_factor_bounds(self):
        for i in range(50):
            f = diurnal_factor(i * 1.7, period=60.0, amplitude=0.3)
            assert 0.7 - 1e-12 <= f <= 1.3 + 1e-12
        assert diurnal_factor(5.0, period=0.0, amplitude=0.3) == 1.0
        assert diurnal_factor(5.0, period=60.0, amplitude=0.0) == 1.0


# -- fluid engine ------------------------------------------------------------

class TestFluidEngine:
    def test_single_flow_matches_closed_form(self):
        """One fluid flow's FCT is exactly size / tcp_steady_throughput."""
        tb = build_testbed()
        ip = ClassicalIP(TESTBED_MTU)
        rate = tcp_steady_throughput(tb.net, "t3e-600", "sp2", ip)
        eng = FluidEngine(tb.net, ip=ip)
        eng.schedule_flow(0.0, "bulk", "t3e-600", "sp2", 64 * MB)
        eng.run()
        (done,) = eng.completed
        assert done.fct == pytest.approx(64 * MB * 8 / rate, rel=1e-9)
        assert done.mean_rate == pytest.approx(rate, rel=1e-9)

    def test_equal_flows_share_equally(self):
        tb = build_testbed()
        eng = FluidEngine(tb.net, window_bytes=8 * MB)
        for i in range(3):
            eng.schedule_flow(0.0, f"f{i}", "t3e-600", "sp2", 16 * MB)
        eng.run()
        fcts = [f.fct for f in eng.completed]
        assert max(fcts) == pytest.approx(min(fcts), rel=1e-9)

    def test_piecewise_rate_after_departure(self):
        """When the short flow leaves, the survivor speeds up: total time
        is shorter than two full-rate halves run serially would suggest."""
        tb = build_testbed()
        ip = ClassicalIP(TESTBED_MTU)
        rate = tcp_steady_throughput(tb.net, "t3e-600", "sp2", ip)
        eng = FluidEngine(tb.net, ip=ip)
        eng.schedule_flow(0.0, "long", "t3e-600", "sp2", 32 * MB)
        eng.schedule_flow(0.0, "short", "t3e-600", "sp2", 8 * MB)
        eng.run()
        done = {f.name: f for f in eng.completed}
        # Shared phase: both at rate/2 until short's 8MB drain.
        t_short = 8 * MB * 8 / (rate / 2)
        assert done["short"].fct == pytest.approx(t_short, rel=1e-9)
        # Long drains 8MB in the shared phase, then 24MB at full rate.
        t_long = t_short + 24 * MB * 8 / rate
        assert done["long"].fct == pytest.approx(t_long, rel=1e-9)
        assert eng.resolves >= 3  # arrivals, departure, final

    def test_late_arrival_triggers_resolve(self):
        tb = build_testbed()
        ip = ClassicalIP(TESTBED_MTU)
        solo_fct = 16 * MB * 8 / tcp_steady_throughput(tb.net, "t3e-600", "sp2", ip)
        eng = FluidEngine(tb.net, ip=ip)
        eng.schedule_flow(0.0, "a", "t3e-600", "sp2", 16 * MB)
        eng.schedule_flow(solo_fct / 2, "b", "t3e-600", "sp2", 16 * MB)
        eng.run()
        done = {f.name: f for f in eng.completed}
        assert done["a"].completed < done["b"].completed
        # b's mid-flight arrival halves a's rate for its second half.
        assert done["a"].fct == pytest.approx(1.5 * solo_fct, rel=1e-6)
        assert eng.resolves >= 4  # two arrivals, two departures

    def test_invalidate_paths_carries_remaining_volume(self):
        """A mid-flight topology change must neither lose nor duplicate
        the bits already transferred."""
        tb = build_testbed()
        ip = ClassicalIP(TESTBED_MTU)
        rate = tcp_steady_throughput(tb.net, "t3e-600", "sp2", ip)
        eng = FluidEngine(tb.net, ip=ip)
        eng.schedule_flow(0.0, "bulk", "t3e-600", "sp2", 32 * MB)
        half = 16 * MB * 8 / rate
        eng.advance_to(0.0)
        eng.advance_to(half)
        eng.invalidate_paths()  # same topology, rebuilt classes
        eng.run()
        (done,) = eng.completed
        assert done.fct == pytest.approx(32 * MB * 8 / rate, rel=1e-6)
        assert done.nbytes == 32 * MB  # original size survives the rebuild

    def test_refilled_class_takes_back_its_creation_slot(self):
        """A class whose last flow leaves drops out of the busy list with
        rate 0.0; a later arrival puts it back in front of the classes
        created after it, which is the solver's summation order."""
        tb = build_testbed()
        eng = FluidEngine(tb.net, window_bytes=8 * MB)
        eng.schedule_flow(0.0, "a1", "t3e-600", "sp2", MB)
        eng.schedule_flow(0.0, "b", "t90", "onyx2-gmd", 64 * MB)
        eng.schedule_flow(0.0, "c", "t3e-1200", "sp2", 64 * MB)
        eng.schedule_flow(0.5, "a2", "t3e-600", "sp2", MB)
        eng.run(until=0.4)
        a, b, c = eng._classes.values()
        assert [f.name for f in eng.completed] == ["a1"]
        assert eng._busy == [b, c]
        assert a.rate == 0.0
        eng.run(until=0.5)
        assert eng._busy == [a, b, c]
        assert [cls.slot for cls in eng._busy] == [0, 1, 2]
        assert a.rate > 0.0
        eng.run()
        assert sorted(f.name for f in eng.completed) == ["a1", "a2", "b", "c"]
        assert eng._busy == []

    def test_unconstrained_class_finishes_every_flow_at_once(self):
        """A path with no finite resource or cap solves to an infinite
        rate: every flow of the class finishes at the instant it arrives,
        and the emptied class comes back for a later arrival."""
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        net.add(Host(env, "b"))
        net.link("a", "b", math.inf, 1e-3)
        eng = FluidEngine(net)
        for i in range(3):
            eng.schedule_flow(1.0, f"f{i}", "a", "b", 1000 * (i + 1))
        eng.schedule_flow(2.0, "g", "a", "b", 5)
        eng.run(until=1.0)
        (cls,) = eng._classes.values()
        assert eng._busy == [] and cls.rate == 0.0
        eng.run()
        done = [(f.name, f.completed) for f in eng.completed]
        assert done == [("f0", 1.0), ("f1", 1.0), ("f2", 1.0), ("g", 2.0)]
        assert eng.active == 0 and eng.resolves == 4

    def test_mean_utilization_single_bottleneck(self):
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        net.add(Switch(env, "sw", latency=1e-6))
        net.add(Host(env, "b"))
        net.link("a", "sw", 1e9, 1e-6)
        net.link("sw", "b", 1e8, 1e-6)
        eng = FluidEngine(net)
        eng.schedule_flow(0.0, "f", "a", "b", 10 * MB)
        eng.run()
        # The 100 Mbit/s hop ran saturated the whole time (framing
        # overhead means payload rate < wire rate, utilization = 1).
        link = net.nodes["sw"].link_to("b")
        assert eng.mean_utilization(f"link:{link.name}:sw") == pytest.approx(
            1.0, rel=1e-6
        )

    def test_rejects_past_arrivals_and_bad_sizes(self):
        tb = build_testbed()
        eng = FluidEngine(tb.net)
        eng.schedule_flow(1.0, "ok", "t3e-600", "sp2", 1024)
        eng.run()
        with pytest.raises(ValueError):
            eng.schedule_flow(0.5, "late", "t3e-600", "sp2", 1024)
        with pytest.raises(ValueError):
            eng.schedule_flow(eng.now + 1, "empty", "t3e-600", "sp2", 0)
        with pytest.raises(ValueError):
            eng.advance_to(eng.now - 1.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda eng: eng.advance_to(math.nan),
            lambda eng: eng.advance_to(math.inf),
            lambda eng: eng.run(until=math.nan),
            lambda eng: eng.run(until=math.inf),
            lambda eng: eng.run(until=-1.0),
        ],
        ids=["advance-nan", "advance-inf", "run-nan", "run-inf", "run-past"],
    )
    def test_rejects_times_not_finite_or_past(self, call):
        """A NaN or infinite time, or one before ``now``, raises and
        leaves the engine as it was: NaN used to do nothing (or run the
        whole day), inf to finish every flow at ``now = inf``."""
        tb = build_testbed()
        eng = FluidEngine(tb.net)
        eng.schedule_flow(0.0, "a", "t3e-600", "sp2", 64 * MB)
        eng.schedule_flow(2.0, "b", "t3e-600", "sp2", 1024)
        eng.advance_to(1.0)
        with pytest.raises(ValueError, match="not finite or before now"):
            call(eng)
        assert (eng.now, eng.active, eng.completed) == (1.0, 1, [])
        eng.run()
        assert sorted(f.name for f in eng.completed) == ["a", "b"]
        assert math.isfinite(eng.mean_active())

    @pytest.mark.parametrize(
        "at, nbytes",
        [
            (math.nan, 1024),
            (math.inf, 1024),
            (1.0, math.nan),
            (1.0, -1),
            (1.0, math.inf),
        ],
        ids=["nan-arrival", "inf-arrival", "nan-size", "negative-size", "inf-size"],
    )
    def test_rejects_non_finite_arrival_and_bad_size(self, at, nbytes):
        """A NaN arrival used to be queued and then hang ``run()``; bad
        input is refused when it is scheduled, before anything runs."""
        eng = FluidEngine(build_testbed().net)
        with pytest.raises(ValueError):
            eng.schedule_flow(at, "bad", "t3e-600", "sp2", nbytes)
        assert eng.next_event_time() == math.inf

    @pytest.mark.parametrize(
        "src, dst, match",
        [
            ("sp2", "sp2", "'sp2' to itself"),
            ("t3e-600", "no-such-host", "'no-such-host' is not a host"),
            ("gw-o200", "sp2", "'gw-o200' is not a host"),
        ],
        ids=["self-path", "unknown-host", "gateway"],
    )
    def test_flow_with_bad_endpoint_is_rejected(self, src, dst, match):
        """No repair can route a flow from a host to itself, or to a name
        that is not a host of the network: such a flow used to be parked
        at rate 0 and stay active forever."""
        eng = FluidEngine(build_testbed().net)
        eng.schedule_flow(0.0, "bad", src, dst, MB)
        with pytest.raises(ValueError, match=match):
            eng.run()

    def test_static_demand_with_bad_endpoint_is_rejected(self):
        """A self-path static demand is named as one, not as a missing
        route, and is not registered."""
        eng = FluidEngine(build_testbed().net)
        with pytest.raises(ValueError, match="'sp2' to itself"):
            eng.add_static_demand("loop", "sp2", "sp2", 1e6)
        assert not eng._static

    def test_bad_endpoint_loses_no_flow(self):
        """A flow that raises at admission stays pending, and the flow
        admitted before it in the same step stays held in its class,
        across invalidate_paths() too."""
        eng = FluidEngine(build_testbed().net)
        eng.schedule_flow(0.0, "good", "t3e-600", "sp2", MB)
        eng.schedule_flow(0.0, "bad", "sp2", "sp2", MB)
        with pytest.raises(ValueError, match="'sp2' to itself"):
            eng.run()
        eng.invalidate_paths()
        assert [p[2] for p in eng._pending] == ["bad"]
        with pytest.raises(ValueError, match="'sp2' to itself"):
            eng.run()
        assert eng.arrived == eng.active == 1
        held = [f.name for cls in eng._classes.values() for _, _, f in cls.heap]
        assert held == ["good"]

    def test_partitioned_flow_waits_for_the_repair(self):
        """A flow that arrives while its valid endpoints have no route is
        parked at rate 0, and finishes once a repair routes it."""
        tb = build_testbed()
        ip = ClassicalIP(TESTBED_MTU)
        solo = tcp_steady_throughput(tb.net, "t3e-600", "sp2", ip)
        eng = FluidEngine(tb.net, ip=ip)
        tb.wan_link.set_up(False)
        eng.schedule_flow(0.0, "cut", "t3e-600", "sp2", MB)
        eng.run(until=1.0)
        assert (eng.active, eng.completed) == (1, [])
        tb.wan_link.set_up(True)
        eng.invalidate_paths()
        eng.run()
        (done,) = eng.completed
        assert done.completed == pytest.approx(1.0 + MB * 8 / solo, rel=1e-9)

    def test_every_solve_calls_the_traced_name(self, monkeypatch):
        """perfbench's tracer counts solver calls by wrapping
        ``repro.fluid.engine.max_min_rates``: the engine fills through
        that name once per re-solve that has a demand, and on the
        benchmark day that is 999 calls over its 1,000 re-solves."""
        import repro.fluid.engine as fluid_engine

        fill = fluid_engine.max_min_rates
        calls = []

        def counted(*args):
            calls.append(args)
            return fill(*args)

        monkeypatch.setattr(fluid_engine, "max_min_rates", counted)
        solves = []

        def check(eng):
            routable = [d for d in eng._static.values() if d.costs is not None]
            solves.append(bool(eng._busy or routable))
            assert len(calls) == sum(solves)

        eng = _cut_and_repair_day(check)
        assert len(solves) == eng.resolves
        calls.clear()  # the benchmark day's last re-solve has no demand
        assert _benchmark_day()["resolves"] == 1000
        assert len(calls) == 999

    @pytest.mark.parametrize(
        "window", [0, -1, math.nan], ids=["zero", "negative", "nan"]
    )
    def test_rejects_bad_window(self, window):
        """A zero window used to park every flow at rate 0, and a negative
        or NaN one to fail only at the first re-solve."""
        with pytest.raises(ValueError, match="window_bytes"):
            FluidEngine(build_testbed().net, window_bytes=window)

    def test_fct_stats_shape(self):
        tb = build_testbed()
        eng = FluidEngine(tb.net, window_bytes=8 * MB)
        assert eng.fct_stats() == {}
        for i in range(10):
            eng.schedule_flow(0.1 * i, f"f{i}", "t3e-600", "sp2", MB)
        eng.run()
        stats = eng.fct_stats()
        assert set(stats) == {"mean", "p50", "p95", "p99", "max"}
        assert stats["p50"] <= stats["p95"] <= stats["p99"] <= stats["max"]

    def test_fct_mean_adds_left_to_right(self):
        """The mean FCT is the same on every Python: ten 0.1 s flows add
        up to 0.9999999999999999 left to right, where 3.12's compensated
        sum() gives 1.0."""
        eng = FluidEngine(build_testbed().net)
        eng.completed = [
            CompletedFlow(f"f{i}", "sp2", "t3e-600", MB, 0.0, 0.1) for i in range(10)
        ]
        assert eng.fct_stats()["mean"] == 0.9999999999999999 / 10

    def test_day_independent_of_hash_seed(self):
        """A heavy-tailed day over many path classes completes with the
        same times, statistics and re-solve count under every string
        hash seed: nothing on the engine's path may iterate a set or
        dict of names into a float sum."""
        script = (
            "from repro.fluid import BoundedPareto, FluidEngine, WorkloadGenerator\n"
            "from repro.netsim import build_testbed\n"
            "tb = build_testbed()\n"
            "pairs = [(a, b) for a in tb.juelich_hosts[:3] for b in tb.gmd_hosts]\n"
            "pairs += [(b, a) for a, b in pairs]\n"
            "eng = FluidEngine(tb.net, window_bytes=8 * 2**20)\n"
            "eng.offer(WorkloadGenerator(\n"
            "    pairs, n_sessions=100, session_rate=50.0, seed=5,\n"
            "    sizes=BoundedPareto(shape=1.3, lo=256 * 1024, hi=16 * 2**20),\n"
            ").schedule())\n"
            "eng.run()\n"
            "print(repr((eng.completed, eng.fct_stats(), eng.resolves,\n"
            "            eng.mean_active(), eng.peak_active)))\n"
        )
        assert len(_outputs_under_hash_seeds(script)) == 1


# -- fluid vs packet cross-validation ----------------------------------------

class TestFluidVsPacket:
    def test_agreement_within_5pct_on_overlap_grid(self):
        """The validity envelope the CI sweep pins: distinct-source
        bulk transfers across the shared GMD attachment agree within 5%
        between the packet and fluid engines."""
        ip = ClassicalIP(TESTBED_MTU)
        sources = ["t3e-600", "t3e-1200", "t90"]
        for n in (1, 2, 3):
            tb = build_testbed()
            flows = [
                BulkTransfer(
                    tb.net, sources[i], "e500-gmd", 16 * MB, ip=ip,
                    window_bytes=8 * MB, name=f"b{i}",
                )
                for i in range(n)
            ]
            tb.net.env.run()
            tb2 = build_testbed()
            eng = FluidEngine(tb2.net, ip=ip, window_bytes=8 * MB)
            for i in range(n):
                eng.schedule_flow(0.0, f"b{i}", sources[i], "e500-gmd", 16 * MB)
            eng.run()
            fluid = {f.name: f for f in eng.completed}
            for f in flows:
                pkt_fct = f.end_time - f.start_time
                assert fluid[f.name].fct == pytest.approx(pkt_fct, rel=0.05)
                assert fluid[f.name].mean_rate == pytest.approx(
                    f.throughput, rel=0.05
                )


# -- hybrid coupling ---------------------------------------------------------

class TestHybridCoupling:
    def test_zero_fluid_load_is_bit_identical(self):
        """An idle hybrid must not perturb the packet world at all."""
        tb_ref = build_testbed()
        ref = PingFlow(tb_ref.net, "t3e-600", "sp2", count=30, interval=0.01)
        tb_ref.net.env.run()

        tb = build_testbed()
        HybridSimulation(tb.net)
        ping = PingFlow(tb.net, "t3e-600", "sp2", count=30, interval=0.01)
        tb.net.env.run()
        assert ping.rtt.mean == ref.rtt.mean
        assert tb.net.env.scheduled_count == tb_ref.net.env.scheduled_count

    def test_fluid_load_inflates_packet_rtt(self):
        tb_ref = build_testbed()
        ref = PingFlow(tb_ref.net, "t3e-600", "sp2", count=30, interval=0.01)
        tb_ref.net.env.run()

        tb = build_testbed()
        hyb = HybridSimulation(tb.net, window_bytes=8 * MB)
        ping = PingFlow(tb.net, "t3e-600", "sp2", count=30, interval=0.01)
        hyb.add_packet_flow(ping)
        wg = WorkloadGenerator(
            [("t3e-600", "sp2")],
            n_sessions=15,
            session_rate=50.0,
            seed=3,
            sizes=BoundedPareto(lo=4 * MB, hi=32 * MB),
        )
        hyb.offer(wg.schedule())
        tb.net.env.run()
        assert len(hyb.engine.completed) == 15
        assert ping.rtt.mean > ref.rtt.mean
        assert hyb.peak_background > 0.0

    def test_one_live_tick_entry(self):
        """Re-arming the fluid clock cancels the tick it supersedes, so
        the packet heap holds at most one live tick entry."""
        tb = build_testbed()
        hyb = HybridSimulation(tb.net)
        hyb.offer([FlowArrival(0.5, "fluid", "t3e-600", "sp2", MB)])
        hyb.add_packet_flow(
            PingFlow(tb.net, "t3e-600", "sp2", count=3, interval=0.01)
        )
        live = [e for e in tb.net.env._queue if e[2] == hyb._tick]
        assert len(live) == 1
        tb.net.env.run()
        assert [f.name for f in hyb.engine.completed] == ["fluid"]

    def test_cut_cancels_the_superseded_tick(self):
        """A cut that parks every fluid flow leaves no next event: the
        tick armed for the old completion is cancelled, not left live to
        advance the engine at that time for nothing."""
        tb = build_testbed()
        hyb = HybridSimulation(tb.net)
        hyb.offer([FlowArrival(0.0, "fluid", "t3e-600", "sp2", 64 * MB)])
        tb.net.env.run(until=0.005)
        (armed,) = [e for e in tb.net.env._queue if e[2] == hyb._tick]
        old_done = armed[0]
        tb.net.env.call_at(0.01, tb.wan_link.set_up, False)
        tb.net.env.run(until=0.02)
        assert hyb.engine.next_event_time() == float("inf")
        assert hyb._next_tick is None
        assert not [e for e in tb.net.env._queue if e[2] == hyb._tick]
        advanced = []
        advance = hyb.engine.advance_to
        hyb.engine.advance_to = lambda t: advanced.append(t) or advance(t)
        tb.net.env.run(until=old_done + 1.0)
        assert advanced == []
        assert hyb.engine.active == 1 and not hyb.engine.completed

    def test_packet_demand_reserves_fluid_share(self):
        """With a packet flow declared, fluid flows on the same path get
        less than the full capacity — the solve leaves the packet share."""
        tb = build_testbed()
        ip = ClassicalIP(TESTBED_MTU)
        solo = tcp_steady_throughput(tb.net, "t3e-600", "sp2", ip)
        eng = FluidEngine(tb.net, ip=ip)
        eng.add_static_demand("packet", "t3e-600", "sp2", solo / 2)
        eng.schedule_flow(0.0, "fluid", "t3e-600", "sp2", 8 * MB)
        eng.run()
        (done,) = eng.completed
        assert done.mean_rate == pytest.approx(solo / 2, rel=1e-6)

    def test_static_demand_follows_invalidation(self):
        """After ``invalidate_paths`` a static demand falls silent while
        its path is cut and reserves its share again once the path
        returns."""
        tb = build_testbed()
        ip = ClassicalIP(TESTBED_MTU)
        solo = tcp_steady_throughput(tb.net, "t3e-600", "sp2", ip)
        eng = FluidEngine(tb.net, ip=ip)
        eng.add_static_demand("packet", "t3e-600", "sp2", solo / 2)
        eng.schedule_flow(0.0, "fluid", "t3e-600", "sp2", 8 * MB)
        eng.advance_to(0.0)
        shared = eng.next_event_time()
        assert shared == pytest.approx(8 * MB * 8 / (solo / 2), rel=1e-6)
        tb.wan_link.set_up(False)
        eng.invalidate_paths()  # both silent: no route for either
        assert eng.next_event_time() == math.inf
        tb.wan_link.set_up(True)
        eng.invalidate_paths()
        assert eng.next_event_time() == shared

    def test_static_demand_requires_route(self):
        tb = build_testbed()
        eng = FluidEngine(tb.net)
        with pytest.raises(ValueError):
            eng.add_static_demand("bad", "t3e-600", "no-such-host", 1e6)

    def test_static_demand_name_is_unique(self):
        """A second demand under a taken name would silently replace the
        first one's reservation."""
        eng = FluidEngine(build_testbed().net)
        eng.add_static_demand("packet", "t3e-600", "sp2", 1e6)
        with pytest.raises(ValueError, match="'packet'"):
            eng.add_static_demand("packet", "t90", "sp2", 2e6)
        assert eng._static["packet"].src == "t3e-600"

    @pytest.mark.parametrize("cap", [-1.0, math.nan], ids=["negative", "nan"])
    def test_static_demand_cap_checked_at_registration(self, cap):
        eng = FluidEngine(build_testbed().net)
        with pytest.raises(ValueError, match="'packet'"):
            eng.add_static_demand("packet", "t3e-600", "sp2", cap)
        assert not eng._static

    def test_background_seam_validation(self):
        tb = build_testbed()
        link = tb.net.links[tb.wan_link.name]
        with pytest.raises(ValueError):
            link.set_background_load("sw-juelich", 1.0)
        with pytest.raises(ValueError):
            link.set_background_load("sw-juelich", -0.1)
        with pytest.raises(KeyError):
            link.set_background_load("not-an-endpoint", 0.5)

    def test_background_load_stretches_serialization(self):
        """share s on a link direction scales packet goodput by (1-s)."""
        def run(share):
            tb = build_testbed()
            link = tb.net.links[tb.wan_link.name]
            link.set_background_load("sw-juelich", share)
            bt = BulkTransfer(
                tb.net, "t3e-600", "sp2", 4 * MB, ip=ClassicalIP(TESTBED_MTU)
            )
            return bt.run()

        # The WAN wire is not the bottleneck at share=0; at 0.98 its
        # residual 2% is, and goodput must drop substantially.
        assert run(0.98) < 0.5 * run(0.0)

    def test_topology_fault_reroutes_fluid_flows(self):
        """A WAN outage mid-flight stalls fluid flows (rate 0 on the
        partitioned path) and repair resumes them — completions must
        land after the repair, with the volume intact."""
        tb = build_testbed()
        hyb = HybridSimulation(tb.net, window_bytes=8 * MB)
        wg = WorkloadGenerator(
            [("t3e-600", "sp2")],
            n_sessions=5,
            session_rate=100.0,
            seed=9,
            sizes=BoundedPareto(lo=2 * MB, hi=8 * MB),
        )
        hyb.offer(wg.schedule())
        FaultInjector(tb.net).link_down(tb.wan_link, at=0.05, duration=2.0)
        tb.net.env.run()
        assert len(hyb.engine.completed) == 5
        assert all(f.completed >= 2.05 - 1e-9 for f in hyb.engine.completed)

    def test_gateway_background_seam(self):
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        from repro.netsim import Gateway

        net.add(Gateway(env, "gw", per_packet=1e-5))
        net.add(Host(env, "b"))
        net.link("a", "gw", 1e9, 1e-6)
        net.link("gw", "b", 1e9, 1e-6)
        gw = net.nodes["gw"]
        gw.set_background_load(0.5)
        assert gw.background_share == 0.5
        assert gw._eff_per_packet == pytest.approx(2e-5)
        gw.set_background_load(0.0)
        assert gw._eff_per_packet == pytest.approx(1e-5)
        with pytest.raises(ValueError):
            gw.set_background_load(1.0)


# -- solver core -------------------------------------------------------------

def _solver_corpus(n_cases=300, seed=14):
    """Seeded random ``max_min_rates`` inputs: 1-25 demands over 1-30
    resources, counts 1-5 (or none), caps ``inf``/finite/0, zero-cost
    entries and empty cost dicts.  Only ``random()`` products, no
    ``**`` or libm calls, so the inputs are bit-identical everywhere."""
    rng = random.Random(seed)
    cost_scales = (1e-12, 1e-10, 1e-9, 1e-8, 1e-7)
    cap_scales = (1e6, 1e7, 1e8, 1e9)
    for _ in range(n_cases):
        res = [f"r{i}" for i in range(rng.randint(1, 30))]
        costs, caps, counts = {}, {}, {}
        for i in range(rng.randint(1, 25)):
            name = f"d{i}"
            costs[name] = {
                r: 0.0 if rng.random() < 0.1 else rng.random() * rng.choice(cost_scales)
                for r in rng.sample(res, rng.randint(0, min(6, len(res))))
            }
            roll = rng.random()
            if roll < 0.5:
                caps[name] = math.inf
            elif roll < 0.6:
                caps[name] = 0.0
            else:
                caps[name] = rng.random() * rng.choice(cap_scales)
            counts[name] = rng.randint(1, 5)
        yield costs, caps, (counts if rng.random() < 0.8 else None)


#: SHA-256 of the corpus rates, computed with the solver as it stood
#: before its resource index.  The solver adds left to right, so one
#: pin holds on every interpreter line.
_SOLVER_CORPUS_SHA = "0bf0c0fc85fc7266373a74f134691a15400579ad2383b18217a620ad9d1030dc"


def _solver_corpus_digest():
    from repro.netsim.tcp import max_min_rates

    h = hashlib.sha256()
    for costs, caps, counts in _solver_corpus():
        h.update(repr(sorted(max_min_rates(costs, caps, counts).items())).encode())
    return h.hexdigest()


_OVERFLOW = "resource 'r'.*overflows"


class TestMaxMinRates:
    def test_class_aggregation_matches_individuals(self):
        """Counts are exact: m identical demands solved as one class get
        the same rate as m individual demands."""
        from repro.netsim.tcp import max_min_rates

        costs_one = {"c": {"r": 1e-8}}
        agg = max_min_rates(costs_one, {"c": math.inf}, {"c": 4})
        costs_many = {f"f{i}": {"r": 1e-8} for i in range(4)}
        caps = {f"f{i}": math.inf for i in range(4)}
        indiv = max_min_rates(costs_many, caps)
        assert agg["c"] == pytest.approx(indiv["f0"], rel=1e-9)

    def test_golden_corpus_digest(self):
        """The rates of 300 seeded random cases are pinned bit for bit:
        any change to the solver's arithmetic or summation order moves
        this digest."""
        assert _solver_corpus_digest() == _SOLVER_CORPUS_SHA

    def test_demand_adds_left_to_right(self):
        """The rates are the same on every Python: ten demands costing
        0.1 on one resource add up to 0.9999999999999999 left to right,
        so each gets 1 / 0.9999999999999999, where 3.12's compensated
        sum() gives a demand of 1.0 and a rate of 1.0."""
        from repro.netsim.tcp import max_min_rates

        costs = {f"f{i}": {"r": 0.1} for i in range(10)}
        rates = max_min_rates(costs, dict.fromkeys(costs, math.inf))
        assert rates == dict.fromkeys(costs, 1.0000000000000002)

    def test_caps_respected(self):
        from repro.netsim.tcp import max_min_rates

        rates = max_min_rates(
            {"a": {"r": 1e-8}, "b": {"r": 1e-8}},
            {"a": 10e6, "b": math.inf},
        )
        assert rates["a"] == pytest.approx(10e6)
        assert rates["b"] == pytest.approx(1e8 - 10e6, rel=1e-6)

    def test_result_independent_of_hash_seed(self):
        """The water-fill sums float demands over the live set; that sum
        must run in a fixed order, or string-hash randomization changes
        the rates from one interpreter to the next."""
        script = (
            "import random\n"
            "from repro.netsim.tcp import max_min_rates\n"
            "rng = random.Random(7)\n"
            "res = [f'link{i}' for i in range(12)]\n"
            "costs, caps = {}, {}\n"
            "for i in range(40):\n"
            "    name = f'demand{i}'\n"
            "    costs[name] = {r: 10 ** rng.uniform(-12, -6)\n"
            "                   for r in rng.sample(res, rng.randint(1, 5))}\n"
            "    caps[name] = rng.choice([float('inf'), 10 ** rng.uniform(5, 9)])\n"
            "print(repr(max_min_rates(costs, caps)))\n"
        )
        assert len(_outputs_under_hash_seeds(script)) == 1

    @pytest.mark.parametrize(
        "costs, caps, counts, match",
        [
            ({"a": {"r": -1e-9}}, {"a": math.inf}, None, "'a'.*negative"),
            ({"a": {"r": math.nan}}, {"a": math.inf}, None, "'a'.*NaN"),
            (
                {"a": {"r1": math.inf}, "b": {"r2": 1e-8}},
                {"a": math.inf, "b": math.inf},
                None,
                "'a'.*infinite",
            ),
            ({"a": {"r": 1e-9}}, {"a": -1.0}, None, "'a'.*negative"),
            ({"a": {"r": 1e-9}}, {"a": math.nan}, None, "'a'.*NaN"),
            ({"a": {"r": 1e-9}}, {"a": math.inf}, {"a": 0}, "'a'.*below 1"),
            ({"a": {"r": 1e-9}}, {"a": math.inf}, {"a": math.inf}, "'a'.*not finite"),
            ({"a": {"r": 1e-9}}, {"a": math.inf}, {"a": math.nan}, "'a'.*not finite"),
            (
                {"a": {"r": 1e-9}, "b": {"r": 2e-9}},
                {"a": math.inf, "b": math.inf},
                {"a": 2, "b": 7.5},
                "'b'.*7.5 is not a whole number",
            ),
            ({"a": {}, "b": {"r": 1e-9}}, {"a": 0.0}, None, "'b' has no cap"),
            ({"a": {"r": 1e-9}}, {"a": math.inf}, {"ghost": 2}, "'ghost'"),
            # An overflowing count × cost makes every step 0, so nothing
            # freezes and the stall guard would zero every demand on "r".
            ({"a": {"r": 1e300}}, {"a": math.inf}, {"a": 10**10}, _OVERFLOW),
            (
                {"a": {"r": 1e300}, "b": {"r": 1e-8}},
                {"a": math.inf, "b": math.inf},
                {"a": 10**10},
                _OVERFLOW,
            ),
            (
                {"a": {"r": 1e308}, "b": {"r": 1e308}},
                {"a": math.inf, "b": math.inf},
                None,
                _OVERFLOW,
            ),
        ],
        ids=[
            "negative-cost",
            "nan-cost",
            "infinite-cost",
            "negative-cap",
            "nan-cap",
            "count-below-1",
            "infinite-count",
            "nan-count",
            "fractional-count",
            "missing-cap",
            "count-without-costs",
            "overflowing-count",
            "overflow-shared",
            "overflowing-sum",
        ],
    )
    def test_rejects_bad_input(self, costs, caps, counts, match):
        from repro.netsim.tcp import max_min_rates

        with pytest.raises(ValueError, match=match):
            max_min_rates(costs, caps, counts)

    def test_parked_demand_is_valid(self):
        """The engine's unroutable class: zero cap, no costs, rate 0."""
        from repro.netsim.tcp import max_min_rates

        rates = max_min_rates(
            {"parked": {}, "bulk": {"r": 1e-8}},
            {"parked": 0.0, "bulk": math.inf},
            {"parked": 3, "bulk": 2},
        )
        assert rates == {"parked": 0.0, "bulk": 5e7}


# -- dominated resources -----------------------------------------------------

def _dominance_corpus(n_cases=1000, seed=16):
    """Seeded ``max_min_rates`` inputs shaped like routed paths, so that
    dominated resources are common: resources hang in a source-side and
    a destination-side tree, and each demand crosses one leaf-to-root
    branch of each, sharing prefixes with its neighbours.  A demand's
    cost on a resource is the resource's base cost, one ulp either side
    of it, zero, or (rarely) infinite; a base cost may tie its parent's.
    Caps are ``inf``, finite or 0; counts 1-5 or none."""
    rng = random.Random(seed)
    cost_scales = (1e-10, 1e-9, 1e-8)
    cap_scales = (1e6, 1e7, 1e8, 1e9)
    for _ in range(n_cases):
        parent, base, sides = {}, {}, []
        for side in "sd":
            nodes = []
            for k in range(rng.randint(1, 8)):
                r = f"{side}{k}"
                parent[r] = rng.choice(nodes) if nodes else None
                if parent[r] is not None and rng.random() < 0.3:
                    base[r] = base[parent[r]]
                else:
                    base[r] = rng.random() * rng.choice(cost_scales)
                nodes.append(r)
            sides.append(nodes)
        costs, caps, counts = {}, {}, {}
        for i in range(rng.randint(1, 12)):
            path = []
            for nodes in sides:
                r = rng.choice(nodes)
                while r is not None:
                    path.append(r)
                    r = parent[r]
            cost = {}
            for r in path:
                roll = rng.random()
                if roll < 0.005:
                    cost[r] = math.inf
                elif roll < 0.08:
                    cost[r] = 0.0
                elif roll < 0.3:
                    cost[r] = math.nextafter(base[r], 0.0)
                elif roll < 0.5:
                    cost[r] = math.nextafter(base[r], math.inf)
                else:
                    cost[r] = base[r]
            name = f"d{i}"
            costs[name] = cost
            roll = rng.random()
            if roll < 0.5:
                caps[name] = math.inf
            elif roll < 0.6:
                caps[name] = 0.0
            else:
                caps[name] = rng.random() * rng.choice(cap_scales)
            counts[name] = rng.randint(1, 5)
        yield costs, caps, (counts if rng.random() < 0.8 else None)


def _without(costs, drop):
    return {n: {r: x for r, x in c.items() if r not in drop} for n, c in costs.items()}


class TestDominatedResources:
    def test_pruned_solve_is_bit_identical(self):
        """Over every case, and over a random subset of its demands (the
        engine solves only the busy classes of its universe), the rates
        without the dominated resources equal the full solve's by
        ``repr``.  The solver's sequential sums make this hold by
        DESIGN §2.13's monotone-rounding argument; the corpus checks it.
        An infinite cost is never pruned, so both solves reject it."""
        from repro.fluid.engine import _dominated
        from repro.netsim.tcp import max_min_rates

        rng = random.Random(17)
        dropped = rejected = 0
        for costs, caps, counts in _dominance_corpus():
            drop = _dominated(list(costs.values()))
            dropped += len(drop)
            names = list(costs)
            subset = [n for n in names if rng.random() < 0.6] or names[:1]
            for keep in (names, subset):
                full = {n: costs[n] for n in keep}
                n_of = None if counts is None else {n: counts[n] for n in keep}
                if any(math.inf in c.values() for c in full.values()):
                    for case in (full, _without(full, drop)):
                        with pytest.raises(ValueError, match="infinite"):
                            max_min_rates(case, caps, n_of)
                    rejected += 1
                    continue
                want = max_min_rates(full, caps, n_of)
                got = max_min_rates(_without(full, drop), caps, n_of)
                assert repr(got) == repr(want), (costs, caps, counts, drop)
        assert dropped > 3000  # the corpus exercises the rule
        assert rejected > 0

    def test_identical_resources_keep_the_first(self):
        from repro.fluid.engine import _dominated

        demands = [{"a": 1e-9, "b": 1e-9}, {"b": 2e-9, "a": 2e-9}]
        assert _dominated(demands) == {"b"}
        assert _dominated([{"b": 1e-9, "a": 1e-9}]) == {"a"}

    def test_cheaper_or_narrower_resource_is_dropped(self):
        from repro.fluid.engine import _dominated

        # "wan" serves every demand "lan" does, at a higher cost: "lan"
        # goes.  "wan" also serves a demand "lan" does not, so it stays.
        demands = [{"lan": 1e-9, "wan": 2e-9}, {"wan": 2e-9}]
        assert _dominated(demands) == {"lan"}
        # One demand costs more on "lan": both must stay.
        demands = [{"lan": 1e-9, "wan": 2e-9}, {"lan": 3e-9, "wan": 2e-9}]
        assert _dominated(demands) == set()

    def test_infinite_cost_is_never_pruned_and_never_dominates(self):
        from repro.fluid.engine import _dominated

        assert _dominated([{"x": math.inf, "y": 1e-9}]) == set()
        assert _dominated([{"x": math.inf, "y": math.inf}]) == set()
        demands = [{"x": math.inf, "y": 1e-9}, {"x": 1e-8, "y": 1e-9}]
        assert _dominated(demands) == set()

    def test_bad_costs_reach_the_solver(self):
        """A negative or NaN cost is never dropped, so the solve still
        reports it."""
        from repro.fluid.engine import _dominated

        for bad in (-1e-9, math.nan):
            assert _dominated([{"bad": bad, "wan": 1e-9}]) == set()

    def test_drop_set_independent_of_hash_seed(self):
        """Many identical resources under string names: the kept one of
        each group is fixed by universe order, never by set order."""
        script = (
            "import random\n"
            "from repro.fluid.engine import _dominated\n"
            "rng = random.Random(3)\n"
            "groups = [[f'res{g}-{k}' for k in range(4)] for g in range(6)]\n"
            "demands = []\n"
            "for i in range(30):\n"
            "    cost = {}\n"
            "    for g in rng.sample(groups, 3):\n"
            "        for r in rng.sample(g, 4):\n"
            "            cost[r] = (1 + groups.index(g)) * 1e-9\n"
            "    demands.append(cost)\n"
            "print(sorted(_dominated(demands)))\n"
        )
        outputs = _outputs_under_hash_seeds(script)
        assert len(outputs) == 1
        assert outputs.pop().count("res") == 18  # three of four per group

    def test_engine_rates_equal_the_full_solve(self):
        """A 300-session day over the 30 cross-site pairs with a static
        demand, a cut access link and its repair: at every re-solve the
        engine's rates (solved without dominated resources) equal a solve
        over every class's and demand's full costs."""
        seen = {"solves": 0, "pruned": 0}

        def check(eng):
            assert_rates_equal_full_solve(eng)
            for cls in eng._busy:
                seen["pruned"] += len(cls.costs) - len(cls.solve_costs)
            seen["solves"] += 1

        eng = _cut_and_repair_day(check)
        assert len(eng.completed) == 300
        assert seen["solves"] == eng.resolves
        assert seen["pruned"] > 0


def assert_rates_equal_full_solve(eng):
    """The engine's busy list is its non-empty classes in creation order,
    its kept index is fresh (:func:`assert_index_fresh`), the busy
    classes' rates (solved without dominated resources) equal a solve
    over every busy class's and routable demand's full costs, and every
    empty class reads rate 0.0."""
    from repro.netsim.tcp import max_min_rates

    assert eng._busy == [cls for cls in eng._classes.values() if cls.heap]
    assert_index_fresh(eng)
    costs, caps, counts = {}, {}, {}
    for key, cls in eng._classes.items():
        if cls.heap:
            costs[key], caps[key], counts[key] = cls.costs, cls.cap, len(cls.heap)
    for name, demand in eng._static.items():
        if demand.costs is not None:
            costs[name], caps[name], counts[name] = demand.costs, demand.cap, 1
    full = max_min_rates(costs, caps, counts) if costs else {}
    for key, cls in eng._classes.items():
        want = full[key] if cls.heap else 0.0
        assert repr(cls.rate) == repr(want), key


def assert_index_fresh(eng):
    """Right after a re-solve, the engine's kept solver index equals one
    built from scratch, compared by demand key and position: every class
    sits at its creation slot and the routable static demands follow;
    each position holds its demand's cap, freeze limit and solve costs,
    and a busy class's or static demand's count; each resource's users
    are the busy classes' and static demands' ``(position, cost)``
    entries in position order; and the busy list is the non-empty
    classes in slot order.  The busy classes' rates equal
    ``max_min_rates`` over the same demands, bit for bit."""
    from repro.netsim.tcp import check_demand, max_min_rates

    classes = list(eng._classes.values())
    assert [cls.slot for cls in classes] == list(range(len(classes)))
    assert eng._busy == [cls for cls in classes if cls.heap]
    demands = {cls.key: cls for cls in classes}
    for name, demand in eng._static.items():
        if demand.costs is not None:
            demands[name] = demand
    cap_of, limit, mult, uses, users, statics = eng._index
    assert len(cap_of) == len(limit) == len(mult) == len(uses) == len(demands)
    assert list(statics) == list(range(len(classes), len(demands)))
    costs, caps, counts, fresh_users = {}, {}, {}, {}
    for i, (key, d) in enumerate(demands.items()):
        want = (d.cap, check_demand(key, d.solve_costs, d.cap), d.solve_costs)
        assert repr((cap_of[i], limit[i], uses[i])) == repr(want), key
        count = len(d.heap) if i < len(classes) else 1
        if count:
            assert mult[i] == count, key
            costs[key], caps[key], counts[key] = d.solve_costs, d.cap, count
            for r, x in d.solve_costs.items():
                fresh_users.setdefault(r, []).append((i, x))
    assert repr(sorted(users.items())) == repr(sorted(fresh_users.items()))
    rates = max_min_rates(costs, caps, counts) if costs else {}
    for cls in eng._busy:
        assert repr(cls.rate) == repr(rates[cls.key]), cls.key


def _cut_and_repair_day(on_rates_changed=None):
    """A 300-session heavy-tailed day over the 30 cross-site pairs with a
    static demand, an access link cut at a third of the day and repaired
    at two thirds; returns the finished engine."""
    tb = build_testbed()
    pairs = [(a, b) for a in tb.juelich_hosts for b in tb.gmd_hosts]
    pairs += [(b, a) for a, b in pairs]
    eng = FluidEngine(tb.net, window_bytes=8 * MB)
    eng.add_static_demand("packet", "t3e-600", "sp2", 50e6)
    eng.on_rates_changed = on_rates_changed
    schedule = WorkloadGenerator(
        pairs,
        n_sessions=300,
        session_rate=50.0,
        seed=11,
        sizes=BoundedPareto(shape=1.3, lo=256 * 1024, hi=16 * MB),
    ).schedule()
    eng.offer(schedule)
    t_end = schedule[-1].at
    access = tb.net.links["t90--hippi-sw-juelich"]
    eng.run(until=t_end / 3)
    access.set_up(False)
    eng.invalidate_paths()
    eng.run(until=2 * t_end / 3)
    access.set_up(True)
    eng.invalidate_paths()
    eng.run()
    return eng


# -- exactness goldens -------------------------------------------------------

#: SHA-256 of ``max_min_rates`` over the finite cases of
#: ``_dominance_corpus()`` (path-shaped inputs with multi-iteration
#: fills and cap freezes), recorded with the solver that updated every
#: demand's rate on its own.
_PATH_CORPUS_SHA = "5b6158ce951314ab4502d7f7b06d0827394c0402ed587715d6bf0f131f28d947"

#: SHA-256 of everything ``_cut_and_repair_day()`` reports, recorded
#: with the same solver and the engine that keyed its solve by tuple.
#: The solver and ``fct_stats`` add left to right, so one pin holds on
#: every interpreter line.
_DAY_SHA = "448c8bc1267cc4a981d583d61a80e173145d12f25a0d94e87fe8a07cbe2a51a3"


#: SHA-256 of the benchmark day's results (``_benchmark_day()``) as
#: sorted-key JSON with every float at full precision: the digest the
#: benchmark's ``fluid_day`` job reports for seed 0 with ``float_sig=0``.
_BENCHMARK_DAY_SHA = "c1b5f11c1a8f10376a39f38239261b35b3b872b74fb76ec6c32fdad5aba41506"


def _benchmark_day(seed=0):
    """The perfbench ``fluid_day`` job: the fixed 500-session base day
    (seed 1999) over all 30 directed cross-site pairs, each session
    shifted by up to 50 us and grown by up to 1 KByte under ``seed``,
    on CLIP at 9180 bytes with 8 MB windows; returns its results."""
    tb = build_testbed()
    pairs = [(a, b) for a in tb.juelich_hosts for b in tb.gmd_hosts]
    pairs += [(b, a) for a, b in pairs]
    base = WorkloadGenerator(
        pairs,
        n_sessions=500,
        session_rate=50.0,
        seed=1999,
        sizes=BoundedPareto(shape=1.3, lo=256 * 1024, hi=64 * MB),
        diurnal_amplitude=0.3,
        diurnal_period=500 / 50.0,
    ).schedule()
    rng = random.Random(seed)
    schedule = [
        FlowArrival(
            at=a.at + rng.randrange(50) * 1e-6,
            name=a.name, src=a.src, dst=a.dst,
            nbytes=a.nbytes + rng.randrange(1024),
        )
        for a in base
    ]
    eng = FluidEngine(tb.net, ip=ClassicalIP(9180), window_bytes=8 * MB)
    eng.offer(schedule)
    eng.run()
    h = hashlib.sha256()
    for a in schedule:
        h.update(f"{round(a.at * 1e6)}|{a.name}|{a.src}|{a.dst}|{a.nbytes}\n".encode())
    return {
        "schedule_sha": h.hexdigest(),
        "offered_bytes": sum(a.nbytes for a in schedule),
        "completed": len(eng.completed),
        "completed_bytes": sum(f.nbytes for f in eng.completed),
        "resolves": eng.resolves,
        "peak_active": eng.peak_active,
        "mean_active": eng.mean_active(),
        "sim_end_s": eng.now,
        "fct_s": eng.fct_stats(),
    }


def _path_corpus_digest():
    from repro.netsim.tcp import max_min_rates

    h = hashlib.sha256()
    for costs, caps, counts in _dominance_corpus():
        if any(math.inf in c.values() for c in costs.values()):
            continue
        h.update(repr(sorted(max_min_rates(costs, caps, counts).items())).encode())
    return h.hexdigest()


def _day_digest():
    eng = _cut_and_repair_day()
    # Utilization of every resource that carried load: a resource that
    # never did reads 0.0 whether or not the engine holds a key for it.
    util = {}
    for r in sorted(eng._util_integral):
        u = eng.mean_utilization(r)
        if u != 0.0:
            util[r] = u
    report = (
        eng.completed,
        eng.fct_stats(),
        eng.resolves,
        eng.mean_active(),
        util,
    )
    return hashlib.sha256(repr(report).encode()).hexdigest()


class TestExactnessGoldens:
    def test_path_corpus_digest(self):
        """Multi-iteration fills over shared path prefixes, with cap and
        saturation freezes, pinned bit for bit."""
        assert _path_corpus_digest() == _PATH_CORPUS_SHA

    def test_cut_and_repair_day_digest(self):
        """Completions, FCT statistics, re-solves, mean activity and
        every resource's utilization over a day with a cut and a repair,
        pinned bit for bit."""
        assert _day_digest() == _DAY_SHA

    def test_benchmark_day_work_counters(self, monkeypatch):
        """The benchmark day's work, pinned exactly: 1,000 re-solves, 999
        fills (its last re-solve has no demand left) and 30 full index
        builds, one per class created.  The other 610 times a class goes
        busy (290) or idle (320) update the kept index in place."""
        import repro.fluid.engine as fluid_engine

        counts = {}

        def counted(name, fn):
            def call(*args):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args)

            return call

        fill = fluid_engine.max_min_rates
        monkeypatch.setattr(fluid_engine, "max_min_rates", counted("fill", fill))
        for name in ("_build_index", "_went_busy", "_went_idle"):
            method = counted(name, getattr(FluidEngine, name))
            monkeypatch.setattr(FluidEngine, name, method)
        assert _benchmark_day()["resolves"] == 1000
        assert counts == {
            "fill": 999, "_build_index": 30, "_went_busy": 290, "_went_idle": 320,
        }

    def test_benchmark_day_digest(self):
        """The benchmark's fluid day, pinned at full precision (the
        benchmark itself compares it at 12 significant digits, which a
        last-ulp drift would pass): 1,000 re-solves, every session done,
        every float bit for bit."""
        results = _benchmark_day()
        assert results["resolves"] == 1000
        assert results["completed"] == 500
        text = json.dumps(results, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == _BENCHMARK_DAY_SHA


def _outputs_under_hash_seeds(script):
    """The distinct standard outputs of ``script`` run in fresh
    interpreters under string hash seeds 0-3."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outputs = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        outputs.add(proc.stdout)
    return outputs
