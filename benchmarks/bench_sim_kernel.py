"""E-kernel — discrete-event kernel throughput, via the sweep harness.

Two angles on the same machinery:

* the raw scheduling rate, measured directly: a self-rescheduling
  ``call_later`` callback chain (the kernel's one scheduling form);
* the packet pipeline end to end: the committed ``kernel_bench`` sweep
  runs a WAN bulk transfer (SP2 -> T3E-600, 64 KByte MTU) and the
  regression gate pins its deterministic kernel-work counters exactly.

Per-packet wall time is measured by the ``perfbench`` ledger, not here;
the delivery order itself is pinned by ``tests/test_delivery_goldens``.

REPRO_BENCH_QUICK=1 selects the quick grid (8 MByte transfer only) and
the matching baseline mode.
"""

import os
import time

import pytest

from repro.harness import SweepRunner, check_sweep, sweep_specs
from repro.sim import Environment

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
MODE = "quick" if QUICK else "full"
BASELINES = os.path.join(os.path.dirname(__file__), "results", "baselines")
N_EVENTS = 100_000


@pytest.fixture(scope="module")
def sweep():
    runner = SweepRunner(timeout=300.0)
    return runner.run(sweep_specs("kernel_bench", quick=QUICK), name="kernel_bench")


def _callback_chain_rate(n: int) -> float:
    """Callbacks/sec for a self-rescheduling ``call_later`` chain."""
    env = Environment()
    remaining = [n]

    def tick():
        remaining[0] -= 1
        if remaining[0]:
            env.call_later(1e-6, tick)

    env.call_later(1e-6, tick)
    t0 = time.perf_counter()
    env.run()
    return n / (time.perf_counter() - t0)


def test_scheduling_rate_report(report, benchmark):
    benchmark.pedantic(lambda: _callback_chain_rate(10_000), rounds=1, iterations=1)
    callback_rate = _callback_chain_rate(N_EVENTS)
    row = f"{'call_later chain (callback)':<30} {callback_rate:>12,.0f} entries/s"
    report.add("E-kernel: raw scheduling throughput", row)

    # Sanity floor only — wall-clock rates are machine-dependent.
    assert callback_rate > 10_000


def test_sweep_regression_gate(report, sweep):
    gate = check_sweep(sweep, MODE, directory=BASELINES)
    report.add("E-kernel-b: kernel_bench regression gate", gate.format())
    assert gate.passed, gate.format()

