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
from repro.harness import SweepRunner, check_sweep, sweep_specs
from repro.netsim import ClassicalIP, build_testbed
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
    runner = SweepRunner(timeout=300.0)
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
