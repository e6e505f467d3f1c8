"""E-fluid — the hybrid flow engine at scale, via the sweep harness.

Three angles:

* the committed ``hybrid`` sweep (fluid-vs-packet cross-validation,
  heavy-tailed scale runs, coupled hybrid) gated against its baseline;
* the headline scale figure: a 10,000-session heavy-tailed day solved
  by the pure fluid engine, reported as flows/s (perfbench's
  ``fluid_day`` is the fluid figure of record);
* the wall-clock acceptance gate: the 10k-session scenario must finish
  in well under 30 s of wall clock with a deterministic seeded schedule.

REPRO_BENCH_QUICK=1 selects the quick grid (1,000 sessions) and the
matching baseline mode.
"""

import os
import time

import pytest

from repro.fluid import BoundedPareto, FluidEngine, WorkloadGenerator
from repro.harness import SweepRunner, check_sweep, open_cache, sweep_specs
from repro.netsim import CbrFlow, ClassicalIP, PingFlow, build_testbed
from repro.netsim.core import packet_pool
from repro.netsim.ip import TESTBED_MTU

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
MODE = "quick" if QUICK else "full"
BASELINES = os.path.join(os.path.dirname(__file__), "results", "baselines")

N_SESSIONS = 1_000 if QUICK else 10_000
SESSION_RATE = 40.0 if QUICK else 90.0
WALL_BUDGET_S = 30.0

PAIRS = [
    ("t3e-600", "sp2"),
    ("t3e-1200", "e500-gmd"),
    ("t90", "onyx2-gmd"),
    ("sp2", "t3e-600"),
]


@pytest.fixture(scope="module")
def sweep():
    runner = SweepRunner(cache=open_cache(), timeout=300.0)
    return runner.run(sweep_specs("hybrid", quick=QUICK), name="hybrid")


def _heavy_tailed_run(seed: int = 0):
    """One seeded heavy-tailed day on the pure fluid engine."""
    tb = build_testbed()
    wg = WorkloadGenerator(
        PAIRS,
        n_sessions=N_SESSIONS,
        session_rate=SESSION_RATE,
        seed=seed,
        sizes=BoundedPareto(),
        diurnal_amplitude=0.3,
        diurnal_period=60.0,
    )
    eng = FluidEngine(
        tb.net, ip=ClassicalIP(TESTBED_MTU), window_bytes=8 * 1024 * 1024
    )
    eng.offer(wg.schedule())
    t0 = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - t0
    return wg, eng, wall


def test_fluid_flows_per_sec_report(report):
    """The scale figure: sessions solved per wall-second."""
    wg, eng, wall = _heavy_tailed_run()
    flows_per_sec = len(eng.completed) / wall if wall > 0 else 0.0
    stats = eng.fct_stats()
    rows = [
        f"{'sessions':<28} {N_SESSIONS:>12,d}",
        f"{'completed':<28} {len(eng.completed):>12,d}",
        f"{'re-solves':<28} {eng.resolves:>12,d}",
        f"{'peak concurrent flows':<28} {eng.peak_active:>12,d}",
        f"{'simulated span':<28} {eng.now:>11.1f}s",
        f"{'wall clock':<28} {wall:>11.2f}s",
        f"{'flows per wall-second':<28} {flows_per_sec:>12,.0f}",
        f"{'FCT mean / p99':<28} {stats['mean']:>7.2f}s / {stats['p99']:.2f}s",
    ]
    report.add(
        f"E-fluid: heavy-tailed day, {N_SESSIONS:,} sessions (fluid engine)",
        "\n".join(rows),
    )

    # Every offered session must complete (open-loop workload, finite
    # sizes, no partitions) and the whole day must be cheap.
    assert len(eng.completed) == N_SESSIONS
    assert wall < WALL_BUDGET_S, (
        f"{N_SESSIONS} sessions took {wall:.1f}s wall (budget {WALL_BUDGET_S}s)"
    )


def test_arena_reuse_report(report):
    """Arena payoff on the packet side of the hybrid: a CBR/ping flow
    mix where the Packet free list runs at steady state.  Reports the
    allocation reduction."""
    tb = build_testbed()
    env = tb.env
    allocs0, reuses0 = packet_pool.allocs, packet_pool.reuses
    flows = [
        CbrFlow(
            tb.net,
            "sp2",
            "t3e-600",
            frame_bytes=64 * 1024,
            interval=2e-3,
            n_frames=200,
            ip=ClassicalIP(TESTBED_MTU),
            name="arena-cbr-fwd",
            drain_timeout=1.0,
        ),
        CbrFlow(
            tb.net,
            "t3e-1200",
            "e500-gmd",
            frame_bytes=64 * 1024,
            interval=2e-3,
            n_frames=200,
            ip=ClassicalIP(TESTBED_MTU),
            name="arena-cbr-rev",
            drain_timeout=1.0,
        ),
        PingFlow(tb.net, "t90", "onyx2-gmd", count=400, interval=1e-3),
    ]
    t0 = time.perf_counter()
    env.run(until=env.all_of([f.done for f in flows]))
    wall = time.perf_counter() - t0
    pkt_allocs = packet_pool.allocs - allocs0
    pkt_reuses = packet_pool.reuses - reuses0
    pkt_total = pkt_allocs + pkt_reuses
    rows = [
        f"{'packet acquires':<28} {pkt_total:>12,d}",
        f"{'  constructed':<28} {pkt_allocs:>12,d}",
        f"{'  recycled':<28} {pkt_reuses:>12,d} "
        f"({pkt_reuses / pkt_total:.0%})" if pkt_total else "",
        f"{'wall clock':<28} {wall:>11.2f}s",
    ]
    report.add(
        "E-fluid-c: arena reuse, packet-side flow mix", "\n".join(rows)
    )

    # The arena must actually absorb the steady-state churn: most
    # packets come back recycled, not freshly built.
    assert pkt_total > 0 and pkt_reuses > pkt_allocs


def test_fluid_run_is_deterministic(report):
    """Same seed ⇒ identical schedule digest AND identical completions."""
    wg_a, eng_a, _ = _heavy_tailed_run(seed=1)
    wg_b, eng_b, _ = _heavy_tailed_run(seed=1)
    assert wg_a.digest() == wg_b.digest()
    done_a = [(f.name, f.arrived, f.completed) for f in eng_a.completed]
    done_b = [(f.name, f.arrived, f.completed) for f in eng_b.completed]
    assert done_a == done_b


def test_sweep_regression_gate(report, sweep):
    gate = check_sweep(sweep, MODE, directory=BASELINES)
    report.add("E-fluid-b: hybrid regression gate", gate.format())
    assert gate.passed, gate.format()
