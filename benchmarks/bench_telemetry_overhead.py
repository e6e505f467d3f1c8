"""E-telemetry — the cost of watching the testbed.

The telemetry subsystem promises that observation never perturbs the
experiment: a :class:`~repro.telemetry.NullRegistry` must leave the
packet/ack hot paths untouched (netsim has no probe seam at all, and
not one extra event is dispatched — an exact gate), and full
instrumentation — per-link counters, drop reasons, flow recovery
counts, callback gauges, a periodic sampler — must stay below 5 % of the
uninstrumented wall-clock time for the standard 40 MByte T3E-600 → SP2
WAN transfer.

The 5 % gates are on medians of per-round ratios: each round runs the
uninstrumented, the NullRegistry and the fully instrumented transfer back
to back, in an order that reverses every round, so the host's speed drift
(tens of percent over seconds on a shared machine) cancels within a round
and a noise burst moves one round, not the verdict.  A minimum over
separate runs per tier does not resolve 5 % on such a host.

Set ``REPRO_BENCH_QUICK=1`` for fewer rounds (CI smoke mode).  The
transfer size is the same in both modes: the 40 MByte run finishes in
tens of milliseconds, and anything smaller is too short to time.
"""

import gc
import json
import os
import statistics
import time

from repro.netsim import BulkTransfer, ClassicalIP, build_testbed
from repro.netsim.ip import TESTBED_MTU
from repro.telemetry import (
    MetricsRegistry,
    NullRegistry,
    Sampler,
    instrument_flow,
    instrument_network,
    to_jsonl,
)
from repro.util.units import MBYTE

IP64K = ClassicalIP(TESTBED_MTU)
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
NBYTES = 40 * MBYTE
ROUNDS = 61 if QUICK else 121
MAX_OVERHEAD = 0.05
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def wan_transfer(registry=None, sample=False):
    """The reference workload, optionally under full instrumentation.

    Only the simulation run itself is timed: probe/gauge installation is
    a one-time O(links) setup cost, not hot-path overhead.
    """
    tb = build_testbed()
    bt = BulkTransfer(tb.net, "t3e-600", "sp2", NBYTES, ip=IP64K, name="wan-bulk")
    sampler = None
    if registry is not None:
        instrument_network(tb.net, registry)
        instrument_flow(bt, registry)
        if sample and registry.enabled:
            # Default sampler cadence (0.1 simulated seconds) — the
            # configuration a user gets from Sampler(env, registry).
            sampler = Sampler(tb.net.env, registry).start()
    t0 = time.perf_counter()
    bt.run()
    elapsed = time.perf_counter() - t0
    if sampler is not None:
        sampler.stop()
    return tb, bt, elapsed


#: (key, registry factory, sampler?) for the three instrumentation tiers.
TIERS = (
    ("base", None, False),
    ("null", NullRegistry, False),
    ("full", MetricsRegistry, True),
)


def measure(rounds=ROUNDS):
    """Per round, each tier's wall clock, run back to back in an order
    that reverses every round."""
    wan_transfer(None)  # warmup: imports, allocator pools, branch caches
    times = {key: [] for key, _, _ in TIERS}
    for i in range(rounds):
        for key, factory, sample in TIERS[:: -1 if i % 2 else 1]:
            registry = factory() if factory is not None else None
            gc.collect()
            times[key].append(wan_transfer(registry, sample=sample)[2])
    return times


def test_overhead_report(report, benchmark):
    benchmark.pedantic(
        wan_transfer, kwargs={"registry": MetricsRegistry(), "sample": True},
        rounds=1, iterations=1,
    )
    times = measure()
    base = times["base"]
    rows = [f"{'uninstrumented':<28} {statistics.median(base) * 1e3:>8.1f} ms"]
    overhead = {}
    for key, label in (
        ("null", "NullRegistry (default)"),
        ("full", "full registry + sampler"),
    ):
        ratios = [t / b for b, t in zip(base, times[key])]
        q1, med, q3 = statistics.quantiles(ratios, n=4)
        overhead[key] = med - 1.0
        rows.append(
            f"{label:<28} {statistics.median(times[key]) * 1e3:>8.1f} ms "
            f"({med - 1.0:+7.2%}, round quartiles {q1 - 1.0:+.2%} .. {q3 - 1.0:+.2%})"
        )
    rows.append(
        f"(medians of {ROUNDS} rounds in alternating order, {NBYTES // MBYTE} "
        f"MByte T3E-600 -> SP2{', quick mode' if QUICK else ''})"
    )
    report.add("E-telemetry: instrumentation overhead on the WAN transfer",
               "\n".join(rows))

    # NullRegistry is indistinguishable from no telemetry at all; the
    # full registry stays within the 5 % budget.
    assert overhead["null"] < MAX_OVERHEAD
    assert overhead["full"] < MAX_OVERHEAD


def test_null_registry_installs_nothing():
    """NullRegistry is no telemetry at all, exactly: no probe seam on
    any simulator object and the same number of scheduled kernel entries
    as the uninstrumented run (the wall clock cannot resolve a zero cost;
    the entry count can)."""
    tb_base, bt_base, _ = wan_transfer(None)
    tb_null, bt_null, _ = wan_transfer(NullRegistry(), sample=True)
    net = tb_null.net
    assert net.env.scheduled_count == tb_base.net.env.scheduled_count
    assert net.env.now == tb_base.net.env.now
    for obj in [bt_null, net, *net.links.values(), *net.nodes.values()]:
        assert not hasattr(obj, "probe"), obj


def test_instrumentation_does_not_change_results():
    """Same virtual clock and byte counts with and without telemetry."""
    tb_base, bt_base, _ = wan_transfer(None)
    tb_full, bt_full, _ = wan_transfer(MetricsRegistry(), sample=True)
    assert tb_full.net.env.now == tb_base.net.env.now
    assert bt_full.throughput == bt_base.throughput
    for name, link in tb_base.net.links.items():
        other = tb_full.net.links[name]
        assert dict(other.tx_bytes) == dict(link.tx_bytes)
        assert dict(other.tx_packets) == dict(link.tx_packets)


def test_export_metrics_jsonl(report):
    """Export one instrumented run's registry for the CI artifact."""
    registry = MetricsRegistry()
    tb, bt, _ = wan_transfer(registry, sample=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "telemetry_metrics.jsonl")
    n = to_jsonl(registry, path, now=tb.net.env.now)
    assert n > 10
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    names = {r["name"] for r in rows}
    assert "netsim.link.tx_bytes" in names
    assert "netsim.flow.goodput_bps" in names
    report.add(
        "E-telemetry-b: exported metrics",
        f"{n} series -> {os.path.relpath(path, os.path.dirname(RESULTS_DIR))}",
    )
