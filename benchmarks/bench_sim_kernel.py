"""E-kernel — discrete-event kernel throughput, via the sweep harness.

Two angles on the same machinery:

* raw scheduling rates, measured directly: a process yielding timeouts
  (the event slow path) against a self-rescheduling ``call_later``
  callback chain (the allocation-free fast path);
* the packet pipeline end to end: the committed ``kernel_bench`` sweep
  runs a WAN bulk transfer (SP2 -> T3E-600, 64 KByte MTU) and records
  both deterministic kernel-work counters — which the regression gate
  pins exactly — and informational wall-clock packets/sec.

The fast/slow equivalence itself (identical delivery order and metrics
with ``fast_path=False``) is asserted in ``tests/test_sim_determinism``;
here we only check the fast path does strictly less scheduling work.

Every measured rate is also appended to ``results/kernel_trend.jsonl`` so
successive runs accumulate a machine-local throughput trend.

REPRO_BENCH_QUICK=1 selects the quick grid (8 MByte transfer only) and
the matching baseline mode.
"""

import json
import os
import time

import pytest

from repro.harness import SweepRunner, check_sweep, open_cache, sweep_specs
from repro.netsim import BulkTransfer, ClassicalIP, build_testbed
from repro.netsim.ip import TESTBED_MTU
from repro.sim import Environment
from repro.util import git_short_sha

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
MODE = "quick" if QUICK else "full"
BASELINES = os.path.join(os.path.dirname(__file__), "results", "baselines")
TREND_PATH = os.path.join(
    os.path.dirname(__file__), "results", "kernel_trend.jsonl"
)
N_EVENTS = 100_000
BULK_MBYTES = 8


def _append_trend(row: dict) -> None:
    """Append one measurement to the pkts/s trend JSONL."""
    os.makedirs(os.path.dirname(TREND_PATH), exist_ok=True)
    row = {
        "ts": round(time.time(), 3),
        "sha": git_short_sha(),
        "bench_mode": MODE,
        **row,
    }
    with open(TREND_PATH, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def sweep():
    runner = SweepRunner(cache=open_cache(), timeout=300.0)
    return runner.run(sweep_specs("kernel_bench", quick=QUICK), name="kernel_bench")


def _timeout_loop_rate(n: int) -> float:
    """Events/sec for a process yielding back-to-back timeouts."""
    env = Environment()

    def ticker():
        for _ in range(n):
            yield env.timeout(1e-6)

    proc = env.process(ticker())
    t0 = time.perf_counter()
    env.run(proc)
    return n / (time.perf_counter() - t0)


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


def _bulk_run(fast_path: bool):
    """One WAN bulk transfer; returns (goodput_bps, scheduled, wall_s)."""
    tb = build_testbed(env=Environment(fast_path=fast_path))
    bt = BulkTransfer(
        tb.net, "sp2", "t3e-600", BULK_MBYTES * 1024 * 1024, ip=ClassicalIP(TESTBED_MTU)
    )
    t0 = time.perf_counter()
    goodput = bt.run()
    wall = time.perf_counter() - t0
    _append_trend(
        {
            "bench": "wan_bulk_pipeline",
            "path": "fast" if fast_path else "slow",
            "mbytes": BULK_MBYTES,
            "packets": bt.segments_delivered,
            "packets_per_sec": round(bt.segments_delivered / wall, 1),
            "events": tb.env.scheduled_count,
            "wall_s": round(wall, 4),
        }
    )
    return goodput, tb.env.scheduled_count, wall


def test_scheduling_rate_report(report, benchmark):
    benchmark.pedantic(lambda: _callback_chain_rate(10_000), rounds=1, iterations=1)
    event_rate = _timeout_loop_rate(N_EVENTS)
    callback_rate = _callback_chain_rate(N_EVENTS)
    rows = [
        f"{'timeout loop (event form)':<30} {event_rate:>12,.0f} entries/s",
        f"{'call_later chain (callback)':<30} {callback_rate:>12,.0f} entries/s",
        f"{'callback speedup':<30} {callback_rate / event_rate:>12.2f} x",
    ]
    report.add("E-kernel: raw scheduling throughput", "\n".join(rows))

    # Sanity floors only — wall-clock rates are machine-dependent.
    assert event_rate > 10_000
    assert callback_rate > 10_000
    # The callback form skips the Event/Timeout allocation and the
    # generator resume, so it must not be slower than the event form.
    assert callback_rate > event_rate


def test_pipeline_packet_rate_report(report, sweep):
    fast_goodput, fast_scheduled, fast_wall = _bulk_run(fast_path=True)
    slow_goodput, slow_scheduled, slow_wall = _bulk_run(fast_path=False)
    rows = [
        f"{'path':<12} {'goodput':>12} {'heap entries':>13} {'wall':>9}",
        f"{'fast':<12} {fast_goodput / 1e6:>7.1f} Mb/s {fast_scheduled:>13,d} "
        f"{fast_wall:>8.3f}s",
        f"{'slow (ref)':<12} {slow_goodput / 1e6:>7.1f} Mb/s {slow_scheduled:>13,d} "
        f"{slow_wall:>8.3f}s",
    ]
    for label, value in sorted(sweep.metrics().items()):
        if label.endswith(("/packets_per_sec", "/wall_s")):
            rows.append(f"{label:<56} = {value:,.4g}")
    report.add(
        "E-kernel: WAN bulk pipeline, fast vs slow path (8 MByte)", "\n".join(rows)
    )

    # Same simulated outcome, strictly less kernel work.
    assert fast_goodput == slow_goodput
    assert fast_scheduled < slow_scheduled / 2


def test_sweep_regression_gate(report, sweep):
    gate = check_sweep(sweep, MODE, directory=BASELINES)
    report.add("E-kernel-b: kernel_bench regression gate", gate.format())
    assert gate.passed, gate.format()

