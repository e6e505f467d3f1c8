"""E2 — Figure 1 and the Section-2 network measurements, via the sweep
harness.

The module-scoped sweep runs the committed ``fig1_network`` grid (HiPPI
block sizes, TCP-vs-MTU on the local Cray complex and across the WAN,
path characterization) through :class:`repro.harness.SweepRunner` with
the on-disk result cache, then checks the paper's reproduction bands
and gates the whole summary against the committed baseline:

* HiPPI low-level peak with >= 1 MByte blocks: 800 Mbit/s;
* TCP/IP in the local Jülich Cray complex @ 64 KByte MTU: > 430 Mbit/s;
* Cray T3E ↔ IBM SP2 across the WAN: > 260 Mbit/s, bottlenecked by the
  SP nodes' microchannel I/O;
* the OC-48 backbone is never the bottleneck.
"""

import os

import pytest

from repro.harness import SweepRunner, check_sweep, sweep_specs
from repro.netsim import BulkTransfer, ClassicalIP, build_testbed
from repro.netsim.ip import TESTBED_MTU
from repro.netsim.tcp import tcp_steady_throughput
from repro.util.units import KBYTE, MBYTE

IP64K = ClassicalIP(TESTBED_MTU)
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
MODE = "quick" if QUICK else "full"
BASELINES = os.path.join(os.path.dirname(__file__), "results", "baselines")
MBYTES = 10 if QUICK else 40


@pytest.fixture(scope="module")
def sweep():
    runner = SweepRunner(timeout=300.0)
    return runner.run(sweep_specs("fig1_network", quick=QUICK), name="fig1_network")


def test_fig1_report(report, sweep, benchmark):
    benchmark.pedantic(sweep.metrics, rounds=1, iterations=1)
    hippi = sweep.find("hippi_raw", block_bytes=1 * MBYTE)
    local = sweep.find("wan_bulk_transfer", dst="t3e-1200", mtu=64 * KBYTE)
    wan = sweep.find("wan_bulk_transfer", dst="sp2", mtu=64 * KBYTE)
    char = sweep.find("path_characterization", dst="sp2")
    rows = [
        f"{'measurement':<38} {'paper':>12} {'simulated':>12}",
        f"{'HiPPI peak (1 MByte blocks)':<38} {'800 Mbit/s':>12} "
        f"{hippi.metrics['throughput_mbps']:>8.1f} Mb/s",
        f"{'local Cray TCP/IP @64K MTU':<38} {'>430 Mbit/s':>12} "
        f"{local.metrics['goodput_mbps']:>8.1f} Mb/s",
        f"{'T3E <-> SP2 across WAN':<38} {'>260 Mbit/s':>12} "
        f"{wan.metrics['goodput_mbps']:>8.1f} Mb/s",
        f"{'WAN bottleneck':<38} {'SP2 microchannel I/O':>12} "
        f"{char.metrics['bottleneck']:>12}",
    ]
    report.add("E2: Figure 1 / Section-2 network measurements", "\n".join(rows))

    # Quick mode's short smoke transfer under-amortizes TCP ramp-up, so
    # its lower bands sit a few percent under the paper's; the committed
    # quick baseline is the tight gate there.
    local_floor, wan_floor = (415, 250) if QUICK else (430, 260)
    assert 790 < hippi.metrics["throughput_mbps"] <= 800
    assert local_floor < local.metrics["goodput_mbps"] < 480
    assert wan_floor < wan.metrics["goodput_mbps"] < 300
    assert char.metrics["bottleneck"] == "sp2.iobus"


def test_mtu_sweep_monotone(report, sweep):
    """Section 2's point: throughput climbs with MTU on both paths."""
    mtus = (9180, 16 * KBYTE, 32 * KBYTE, 64 * KBYTE)

    def rates(dst):
        return [
            sweep.find("wan_bulk_transfer", dst=dst, mtu=m).metrics["goodput_mbps"]
            for m in mtus
        ]

    local, wan = rates("t3e-1200"), rates("sp2")
    for series in (local, wan):
        assert all(a < b for a, b in zip(series, series[1:])), series
    rows = [f"{'MTU':>8} {'local Mb/s':>12} {'WAN Mb/s':>12}"]
    for mtu, lo, wa in zip(mtus, local, wan):
        rows.append(f"{mtu:>8} {lo:>12.1f} {wa:>12.1f}")
    report.add("E2b: TCP goodput vs MTU (sweep harness)", "\n".join(rows))


def test_oc48_not_bottleneck(sweep):
    char = sweep.find("path_characterization", dst="sp2")
    assert char.metrics["wan_wire_share"] < 0.5


def test_sweep_regression_gate(report, sweep):
    """The committed-baseline gate CI enforces via the harness CLI."""
    gate = check_sweep(sweep, MODE, directory=BASELINES)
    report.add("E2c: fig1_network regression gate", gate.format())
    assert gate.passed, gate.format()


def test_benchmark_wan_transfer(benchmark):
    """Wall-clock of simulating a 10 MByte WAN transfer (DES speed)."""

    def run():
        tb = build_testbed()
        return BulkTransfer(tb.net, "t3e-600", "sp2", 10 * MBYTE, ip=IP64K).run()

    rate = benchmark(run)
    assert rate > 250e6


def test_benchmark_path_characterization(benchmark):
    tb = build_testbed()
    result = benchmark(tcp_steady_throughput, tb.net, "t3e-600", "sp2", IP64K)
    assert result > 0
