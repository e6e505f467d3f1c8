"""E-contention — shared-backbone fairness, via the sweep harness.

Two angles on the DRR link/gateway schedulers:

* equal-flow fairness, measured directly: N identical bulk transfers
  over the same OC-12 WAN path must each get the max-min fair share
  predicted by ``fair_share_throughputs`` (within 5%);
* the paper's concurrent application mix end to end: the committed
  ``contention`` sweep runs bulk + D1 video + ping mixes on the OC-48
  and OC-12 backbones and the regression gate pins per-flow goodputs,
  the model predictions, and the worst model deviation.

REPRO_BENCH_QUICK=1 selects the quick grid (8 MByte transfers) and the
matching baseline mode.
"""

import os

import pytest

from repro.harness import SweepRunner, check_sweep, open_cache, sweep_specs
from repro.netsim import BulkTransfer, ClassicalIP, build_testbed
from repro.netsim.ip import TESTBED_MTU
from repro.netsim.tcp import fair_share_throughputs

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
MODE = "quick" if QUICK else "full"
BASELINES = os.path.join(os.path.dirname(__file__), "results", "baselines")
N_FLOWS = 3
MBYTES = 8 if QUICK else 24


@pytest.fixture(scope="module")
def sweep():
    runner = SweepRunner(cache=open_cache(), timeout=300.0)
    return runner.run(sweep_specs("contention", quick=QUICK), name="contention")


def _equal_flow_run(n: int = N_FLOWS):
    """N symmetric transfers (one per Cray) sharing the 622 Mbit/s ATM
    gateway attachment — a DRR-scheduled bottleneck *link*; returns
    (per-flow goodput bit/s, model prediction bit/s).  Distinct sources
    matter: flows from one host serialize at its FIFO stack stage in
    sender order, which is exactly the starvation DRR exists to prevent
    on the shared wire."""
    tb = build_testbed()
    ip = ClassicalIP(TESTBED_MTU)
    flows = [
        BulkTransfer(
            tb.net,
            src,
            "e500-gmd",
            MBYTES * 1024 * 1024,
            ip=ip,
            name=f"eq-{src}",
        )
        for src in ("t3e-600", "t3e-1200", "t90")[:n]
    ]
    for flow in flows:
        tb.net.env.run(until=flow.done)
    model = fair_share_throughputs(tb.net, flows)
    return {f.name: f.throughput for f in flows}, model


def test_equal_flow_fairness_report(report, benchmark):
    benchmark.pedantic(lambda: _equal_flow_run(n=2), rounds=1, iterations=1)
    goodputs, model = _equal_flow_run()
    rows = [f"{'flow':<8} {'goodput':>12} {'model':>12} {'dev':>8}"]
    worst = 0.0
    for name in sorted(goodputs):
        dev = abs(goodputs[name] - model[name]) / model[name]
        worst = max(worst, dev)
        rows.append(
            f"{name:<8} {goodputs[name] / 1e6:>7.1f} Mb/s "
            f"{model[name] / 1e6:>7.1f} Mb/s {dev:>7.2%}"
        )
    rows.append(f"worst model deviation: {worst:.2%}")
    report.add(
        f"E-contention: {N_FLOWS} equal flows on the OC-12 WAN, DRR vs max-min model",
        "\n".join(rows),
    )

    for name, goodput in goodputs.items():
        assert abs(goodput - model[name]) / model[name] < 0.05, name


def test_mix_report(report, sweep):
    rows = []
    for label, value in sorted(sweep.metrics().items()):
        if "/goodput_" in label or label.endswith("/fair_dev_max"):
            rows.append(f"{label:<72} = {value:,.4g}")
    report.add(
        "E-contention: concurrent bulk + D1 video + ping mixes", "\n".join(rows)
    )
    for label, value in sweep.metrics().items():
        if label.endswith("/fair_dev_max"):
            assert value < 0.10, f"{label} = {value}"


def test_sweep_regression_gate(report, sweep):
    gate = check_sweep(sweep, MODE, directory=BASELINES)
    report.add("E-contention-b: contention regression gate", gate.format())
    assert gate.passed, gate.format()
