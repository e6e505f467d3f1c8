"""E-multisite — redundant-path failover on multi-site topologies, via
the sweep harness.

Two committed grids:

* ``availability`` — the SPring-8-style experiment: a single ring and a
  redundant dual ring suffer the *identical* seeded outage schedule;
  the dual ring's delivered availability (CBR frames that survive the
  playout deadline) must be strictly higher on every grid point;
* ``grid`` — KEK-style bulk staging to a tier-0 site across 2×2 and
  2×3 site grids, with and without a mid-run trunk cut; every transfer
  must fail over onto a surviving grid path (``stalled`` pinned at 0).

REPRO_BENCH_QUICK=1 selects the quick grids and the matching baseline
mode.
"""

import os

import pytest

from repro.harness import SweepRunner, check_sweep, sweep_specs

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
MODE = "quick" if QUICK else "full"
BASELINES = os.path.join(os.path.dirname(__file__), "results", "baselines")


@pytest.fixture(scope="module")
def availability():
    runner = SweepRunner(timeout=300.0)
    return runner.run(
        sweep_specs("availability", quick=QUICK), name="availability"
    )


@pytest.fixture(scope="module")
def grid():
    runner = SweepRunner(timeout=300.0)
    return runner.run(sweep_specs("grid", quick=QUICK), name="grid")


def test_dual_ring_availability_report(report, availability):
    rows = [
        f"{'point':<26} {'single':>8} {'dual':>8} {'lost s/d':>10} "
        f"{'reroutes s/d':>13}"
    ]
    for res in availability.results:
        m = res.metrics
        label = ",".join(
            f"{k}={v}" for k, v in res.spec.params if k in ("index", "sites")
        ) or "default"
        rows.append(
            f"{label:<26} {m['availability_single']:>8.4f} "
            f"{m['availability_dual']:>8.4f} "
            f"{m['frames_lost_single']:>4d}/{m['frames_lost_dual']:<4d} "
            f"{m['reroutes_single']:>5d}/{m['reroutes_dual']:<5d}"
        )
    report.add(
        "E-multisite: single vs dual ring delivered availability",
        "\n".join(rows),
    )
    for res in availability.results:
        m = res.metrics
        # The headline claim, on every point: redundancy strictly wins
        # under the identical outage history.
        assert m["dual_strictly_better"] == 1
        assert m["availability_dual"] > m["availability_single"]
        # Both topologies really suffered the same number of outages and
        # the operator console saw them.
        assert m["outage_windows_dual"] == m["outage_windows_single"]
        assert m["alerts_fired_dual"] == m["alerts_fired_single"] > 0


def test_grid_staging_failover_report(report, grid):
    rows = [f"{'point':<42} {'total':>10} {'reroutes':>9} {'stalled':>8}"]
    for res in grid.results:
        m = res.metrics
        label = ",".join(f"{k}={v}" for k, v in res.spec.params)
        rows.append(
            f"{label:<42} {m['goodput_total_mbps']:>6.0f} Mb/s "
            f"{m['reroutes']:>9d} {m['stalled']:>8d}"
        )
    report.add(
        "E-multisite: grid staging under mid-run trunk cuts", "\n".join(rows)
    )
    for res in grid.results:
        m = res.metrics
        assert m["stalled"] == 0
        if res.spec.get("outage_at") is not None:
            # The cut really happened and routing moved traffic.
            assert m["reroutes"] > 0
        assert m["alt_paths_corner"] >= 2  # the redundancy staging relies on


def test_availability_regression_gate(report, availability):
    gate = check_sweep(availability, MODE, directory=BASELINES)
    report.add("E-multisite-b: availability regression gate", gate.format())
    assert gate.passed, gate.format()


def test_grid_regression_gate(report, grid):
    gate = check_sweep(grid, MODE, directory=BASELINES)
    report.add("E-multisite-b: grid regression gate", gate.format())
    assert gate.passed, gate.format()
