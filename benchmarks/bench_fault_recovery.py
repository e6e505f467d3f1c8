"""E-fault — loss recovery on the Figure-1 testbed, via the sweep
harness.

The committed ``fault_recovery`` grid covers two experiments on the
T3E-600 → SP2 WAN path:

* goodput vs. injected loss rate, against the zero-loss pipeline
  reference and the Mathis loss bound;
* recovery time after a mid-transfer WAN link-down/up: how much longer
  a transfer takes when the OC-48 backbone disappears for one second.

REPRO_BENCH_QUICK=1 selects the quick grid (smaller transfers, a higher
top loss rate so the seeded losses still force retransmits) and the
matching baseline mode.
"""

import os

import pytest

from repro.harness import SweepRunner, check_sweep, sweep_specs
from repro.harness.sweeps import LOSS_AXIS, LOSS_AXIS_QUICK
from repro.netsim import ClassicalIP, build_testbed
from repro.netsim.ip import TESTBED_MTU
from repro.netsim.tcp import tcp_steady_throughput

IP64K = ClassicalIP(TESTBED_MTU)
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
MODE = "quick" if QUICK else "full"
BASELINES = os.path.join(os.path.dirname(__file__), "results", "baselines")
LOSS_RATES = LOSS_AXIS_QUICK if QUICK else LOSS_AXIS
OUTAGE_LEN = 1.0  #: seconds of WAN downtime in the outage scenario


@pytest.fixture(scope="module")
def sweep():
    runner = SweepRunner(timeout=300.0)
    return runner.run(
        sweep_specs("fault_recovery", quick=QUICK), name="fault_recovery"
    )


def test_goodput_vs_loss_report(report, sweep, benchmark):
    benchmark.pedantic(sweep.metrics, rounds=1, iterations=1)
    tb = build_testbed()
    zero_loss = tcp_steady_throughput(tb.net, "t3e-600", "sp2", IP64K)
    rows = [
        f"{'loss rate':>10} {'goodput':>14} {'bound':>14} "
        f"{'rexmt':>6} {'RTOs':>5}"
    ]
    for p in LOSS_RATES:
        m = sweep.find("wan_bulk_transfer", loss_rate=p).metrics
        if p > 0.0:
            bound = sweep.find("loss_bound", loss_rate=p).metrics["bound_mbps"]
            bound_txt = f"{bound:>9.1f} Mb/s"
        else:
            bound_txt = f"{zero_loss / 1e6:>9.1f} Mb/s"
        rows.append(
            f"{p:>10.0e} {m['goodput_mbps']:>9.1f} Mb/s {bound_txt} "
            f"{m['retransmits']:>6d} {m['timeouts']:>5d}"
        )
    report.add(
        "E-fault: WAN goodput vs. loss rate (T3E-600 -> SP2)", "\n".join(rows)
    )

    # Monotone degradation, anchored at the zero-loss reference.
    rates = [
        sweep.find("wan_bulk_transfer", loss_rate=p).metrics["goodput_mbps"]
        for p in LOSS_RATES
    ]
    assert rates[0] * 1e6 == pytest.approx(zero_loss, rel=0.05)
    assert min(rates) > 0
    worst = sweep.find("wan_bulk_transfer", loss_rate=LOSS_RATES[-1]).metrics
    assert worst["retransmits"] > 0  # losses forced retransmits
    assert worst["goodput_mbps"] <= rates[0]


def test_link_outage_recovery_report(report, sweep):
    clean = sweep.find("wan_bulk_transfer", outage=False).metrics
    faulty = sweep.find("wan_bulk_transfer", outage=True).metrics
    overhead = faulty["elapsed_s"] - clean["elapsed_s"]
    rows = [
        f"{'clean transfer':<28} {clean['elapsed_s']:>8.3f} s",
        f"{'with 1.0 s WAN outage':<28} {faulty['elapsed_s']:>8.3f} s",
        f"{'recovery overhead':<28} {overhead:>8.3f} s  "
        f"({faulty['timeouts']} RTOs)",
    ]
    report.add(
        "E-fault: recovery after mid-transfer WAN link-down/up", "\n".join(rows)
    )

    # The transfer pays at least the outage and recovers promptly after:
    # overhead is bounded by the outage plus RTO-backoff overshoot.
    assert faulty["timeouts"] > 0
    assert OUTAGE_LEN <= overhead < OUTAGE_LEN + 4.0


def test_sweep_regression_gate(report, sweep):
    gate = check_sweep(sweep, MODE, directory=BASELINES)
    report.add("E-fault-b: fault_recovery regression gate", gate.format())
    assert gate.passed, gate.format()
