"""E1 + E7 — Table 1: FIRE module times on the Cray T3E, 1–256 PEs.

The model side now runs through the sweep harness: the committed
``table1_t3e`` grid (PE count x image size) is executed once per
module, its summary is gated against the committed baseline, and the
paper's reproduction bands are checked on the sweep's metrics.  The
pytest-benchmark timings still cover the *actual* per-image processing
of the module chain on this machine (the real numerics, not the model).
"""

import os

import pytest

from repro.fire import HeadPhantom, ScannerConfig, SimulatedScanner
from repro.fire.hrf import HrfModel, reference_vector
from repro.fire.modules import (
    correlation_map,
    detrend_timeseries,
    median_filter3d,
    rvo_raster,
)
from repro.harness import SweepRunner, check_sweep, sweep_specs
from repro.machines.t3e_model import REF_VOXELS, TABLE1, TABLE1_PES

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
MODE = "quick" if QUICK else "full"
BASELINES = os.path.join(os.path.dirname(__file__), "results", "baselines")
BIG_VOXELS = 8 * REF_VOXELS  # 128 x 128 x 32


@pytest.fixture(scope="module")
def sweep():
    runner = SweepRunner(timeout=120.0)
    return runner.run(sweep_specs("table1_t3e", quick=QUICK), name="table1_t3e")


def format_comparison(sweep) -> str:
    lines = [
        f"{'PEs':>5} | {'paper total':>11} {'model total':>11} {'err%':>6} | "
        f"{'paper speedup':>13} {'model speedup':>13}"
    ]
    for row in TABLE1:
        point = sweep.find("t3e_scaling", pes=row.pes, voxels=REF_VOXELS)
        total = point.metrics["total_s"]
        speedup = point.metrics["speedup"]
        err = (total - row.total) / row.total * 100
        lines.append(
            f"{row.pes:>5} | {row.total:>11.2f} {total:>11.2f} {err:>+6.1f} | "
            f"{row.speedup:>13.1f} {speedup:>13.1f}"
        )
    return "\n".join(lines)


def test_table1_reproduction(report, sweep, benchmark):
    benchmark.pedantic(sweep.metrics, rounds=1, iterations=1)
    report.add(
        "E1: Table 1 (T3E processing times, 64x64x16 image)",
        format_comparison(sweep),
    )
    for row in TABLE1:
        point = sweep.find("t3e_scaling", pes=row.pes, voxels=REF_VOXELS)
        assert point.metrics["total_s"] == pytest.approx(row.total, rel=0.05)
        assert point.metrics["speedup"] == pytest.approx(row.speedup, rel=0.05)


def test_e7_larger_images_better_speedups(report, sweep):
    lines = [f"{'PEs':>5} | {'64x64x16 speedup':>17} | {'128x128x32 speedup':>18}"]
    for p in TABLE1_PES:
        ref = sweep.find("t3e_scaling", pes=p, voxels=REF_VOXELS).metrics
        big = sweep.find("t3e_scaling", pes=p, voxels=BIG_VOXELS).metrics
        lines.append(
            f"{p:>5} | {ref['speedup']:>17.1f} | {big['speedup']:>18.1f}"
        )
    report.add("E7: larger images achieve better speedups", "\n".join(lines))
    ref256 = sweep.find("t3e_scaling", pes=256, voxels=REF_VOXELS).metrics
    big256 = sweep.find("t3e_scaling", pes=256, voxels=BIG_VOXELS).metrics
    assert big256["speedup"] > 1.5 * ref256["speedup"]
    assert big256["total_s"] > ref256["total_s"]


def test_rvo_dominates(sweep):
    """Paper: 'The most time consuming module is the RVO.'"""
    for p in TABLE1_PES:
        point = sweep.find("t3e_scaling", pes=p, voxels=REF_VOXELS).metrics
        assert point["rvo_s"] > point["motion_s"]
        assert point["rvo_s"] > point["filter_s"]


def test_sweep_regression_gate(report, sweep):
    gate = check_sweep(sweep, MODE, directory=BASELINES)
    report.add("E1b: table1_t3e regression gate", gate.format())
    assert gate.passed, gate.format()


@pytest.fixture(scope="module")
def image_session():
    ph = HeadPhantom()
    sc = SimulatedScanner(ph, ScannerConfig(n_frames=24))
    ts = sc.timeseries()
    return ph, sc, ts


def test_benchmark_median_filter(benchmark, image_session):
    """Wall-clock of the real median filter on one 64x64x16 image."""
    _, sc, ts = image_session
    result = benchmark(median_filter3d, ts[0])
    assert result.shape == ts[0].shape


def test_benchmark_correlation(benchmark, image_session):
    _, sc, ts = image_session
    ref = reference_vector(sc.stimulus[:24], HrfModel(), sc.config.tr)
    result = benchmark(correlation_map, ts, ref)
    assert result.shape == ts[0].shape


def test_benchmark_rvo_raster(benchmark, image_session):
    """The dominant module, on the real data (brain-masked)."""
    ph, sc, ts = image_session
    dts = detrend_timeseries(ts)
    mask = ph.brain_mask()

    result = benchmark.pedantic(
        rvo_raster,
        args=(dts, sc.stimulus[:24]),
        kwargs={"tr": sc.config.tr, "mask": mask},
        rounds=3,
        iterations=1,
    )
    assert result.work_units > 0
