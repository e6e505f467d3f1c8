"""The sweep harness: specs, executors, regression gate, CLI."""

import json
import os

import pytest

from repro.harness import (
    ParameterGrid,
    SweepRunner,
    Tolerance,
    check_sweep,
    compare,
    demo_specs,
    make_spec,
    write_baseline,
)
from repro.harness.cli import main as cli_main
from repro.harness.registry import available, get_scenario, scenario


# ---------------------------------------------------------------- specs


def test_spec_params_are_order_independent():
    a = make_spec("demo", mtu=9180, loss=0.001)
    b = make_spec("demo", loss=0.001, mtu=9180)
    assert a == b
    assert hash(a) == hash(b)
    assert a.content_hash() == b.content_hash()


def test_spec_hash_changes_with_content():
    base = make_spec("demo", mtu=9180)
    assert base.content_hash() != make_spec("demo", mtu=9181).content_hash()
    assert base.content_hash() != make_spec("demo2", mtu=9180).content_hash()
    assert base.content_hash() != make_spec("demo").content_hash()


def test_spec_seed_is_deterministic_and_32bit():
    spec = make_spec("demo", index=7)
    assert spec.seed == make_spec("demo", index=7).seed
    assert 0 <= spec.seed < 2**32
    assert spec.seed != make_spec("demo", index=8).seed


def test_spec_freezes_sequences_and_rejects_mappings():
    spec = make_spec("demo", sizes=[1, 2, 3])
    assert spec.get("sizes") == (1, 2, 3)
    assert hash(spec)  # still hashable
    with pytest.raises(TypeError):
        make_spec("demo", bad={"a": 1})


def test_spec_label_and_roundtrip():
    spec = make_spec("demo", mtu=9180, quick=True)
    assert spec.label() == "demo[mtu=9180,quick=True]"
    assert spec.as_dict() == {"mtu": 9180, "quick": True}
    assert spec.with_params(mtu=1500).get("mtu") == 1500


def test_parameter_grid_cross_product():
    grid = ParameterGrid(
        {"mtu": [9180, 65536], "loss": [0.0, 1e-3]}, fixed={"dst": "sp2"}
    )
    specs = grid.specs("wan_bulk_transfer")
    assert len(grid) == 4
    assert len(specs) == len(set(specs)) == 4
    assert all(s.get("dst") == "sp2" for s in specs)
    # Deterministic expansion order: sorted axis names, value order kept.
    assert [s.get("loss") for s in specs] == [0.0, 0.0, 1e-3, 1e-3]


# ------------------------------------------------------------- registry


def test_registry_lookup_and_duplicate_protection():
    assert "demo" in available()
    assert callable(get_scenario("wan_bulk_transfer"))
    with pytest.raises(KeyError):
        get_scenario("no-such-scenario")
    with pytest.raises(ValueError):
        scenario("demo")(lambda spec: {})


# ------------------------------------------------------------ execution


def test_serial_and_pool_executors_agree():
    """Same spec + seed => identical summary across executors."""
    specs = demo_specs(n=6, duration=0.0)
    serial = SweepRunner(processes=1).run(specs, name="demo")
    pooled = SweepRunner(processes=3).run(specs, name="demo")
    assert serial.metrics() == pooled.metrics()
    assert serial.ok and pooled.ok
    assert len(serial.results) == len(pooled.results) == 6


def test_pool_speedup_on_12_scenario_demo_sweep():
    """Acceptance: 12 scenarios run >= 2x faster pooled than serially."""
    specs = demo_specs(n=12, duration=0.25)
    serial = SweepRunner(processes=1).run(specs, name="demo")
    pooled = SweepRunner(processes=4).run(specs, name="demo")
    assert serial.metrics() == pooled.metrics()
    assert serial.wall_time >= 2.0 * pooled.wall_time, (
        f"pool gave only {serial.wall_time / pooled.wall_time:.2f}x "
        f"({serial.wall_time:.2f}s serial vs {pooled.wall_time:.2f}s pooled)"
    )


def test_scenario_failure_is_recorded_not_cached():
    specs = [make_spec("demo", fail=True), make_spec("demo", index=1)]
    result = SweepRunner(processes=1).run(specs, name="demo")
    assert not result.ok and result.failed == 1
    assert "asked to fail" in result.results[0].error
    assert result.results[1].ok


def test_pool_timeout_marks_scenario_and_sweep_continues():
    specs = [make_spec("demo", hang=True), make_spec("demo", index=1)]
    result = SweepRunner(processes=2, timeout=1.0).run(specs, name="demo")
    hung, fine = result.results
    assert not hung.ok and "timeout" in hung.error
    assert fine.ok
    assert result.failed == 1


def test_sweep_result_find_and_rows():
    specs = demo_specs(n=2, duration=0.0)
    result = SweepRunner(processes=1).run(specs, name="demo")
    assert result.find("demo", index=1).spec.get("index") == 1
    with pytest.raises(KeyError):
        result.find("demo", index=99)
    rows = result.rows()
    # Telemetry-JSONL shape: kind/name/labels/value per series.
    assert all(
        {"kind", "name", "labels", "value"} <= set(r) for r in rows
    )
    assert {r["labels"]["scenario"] for r in rows} == {"demo"}
    assert all(r["labels"]["sweep"] == "demo" for r in rows)


def test_sweep_result_jsonl_export(tmp_path):
    result = SweepRunner(processes=1).run(demo_specs(2, 0.0), name="demo")
    path = tmp_path / "sweep.jsonl"
    n = result.to_jsonl(str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == n > 0
    assert all(json.loads(line)["kind"] == "sweep" for line in lines)


# ------------------------------------------------------ regression gate


def test_tolerance_allows_within_band():
    tol = Tolerance(rel=0.05, abs=0.5)
    assert tol.allows(100.0, 104.9)
    assert not tol.allows(100.0, 106.0)
    assert tol.allows(0.1, 0.4)  # abs floor dominates near zero


def test_comparator_passes_within_tolerance():
    report = compare(
        "s", "full", {"a/x": 102.0}, {"a/x": 100.0}, Tolerance(rel=0.05)
    )
    assert report.passed and not report.regressions


def test_comparator_fails_on_perturbed_metric():
    """Acceptance: a perturbation beyond tolerance fails the gate."""
    report = compare(
        "s", "full", {"a/x": 112.0}, {"a/x": 100.0}, Tolerance(rel=0.05)
    )
    assert not report.passed
    assert report.regressions[0].metric == "a/x"
    assert "REGRESSION" in report.format()


def test_comparator_missing_and_new_metrics():
    report = compare(
        "s", "full", {"a/new": 1.0}, {"a/gone": 2.0}, Tolerance(rel=0.05)
    )
    statuses = {d.metric: d.status for d in report.deviations}
    assert statuses == {"a/gone": "missing", "a/new": "new"}
    assert not report.passed  # missing fails; new alone would not


def test_comparator_string_metrics_compare_exactly():
    ok = compare(
        "s", "full", {"a/b": "sp2.iobus"}, {"a/b": "sp2.iobus"}, Tolerance()
    )
    bad = compare("s", "full", {"a/b": "wan"}, {"a/b": "sp2.iobus"}, Tolerance())
    assert ok.passed and not bad.passed


def test_comparator_glob_tolerances():
    report = compare(
        "s",
        "full",
        {"a/retransmits": 7, "b/retransmits": 3},
        {"a/retransmits": 4, "b/retransmits": 3},
        Tolerance(),  # exact by default
        per_metric={"*/retransmits": Tolerance(abs=5)},
    )
    assert report.passed


def test_baseline_roundtrip_and_gate(tmp_path):
    result = SweepRunner(processes=1).run(demo_specs(3, 0.0), name="demo")
    path = write_baseline(
        result, "quick", directory=str(tmp_path),
        tolerances={"default": {"rel": 0.01}},
    )
    gate = check_sweep(result, "quick", directory=str(tmp_path))
    assert gate.passed, gate.format()
    # Perturb one committed value beyond tolerance -> gate fails.
    doc = json.loads(open(path).read())
    metric = sorted(doc["modes"]["quick"]["metrics"])[0]
    doc["modes"]["quick"]["metrics"][metric] = 999.0
    with open(path, "w") as fh:
        json.dump(doc, fh)
    gate = check_sweep(result, "quick", directory=str(tmp_path))
    assert not gate.passed
    # Unknown mode is a hard error, not a silent pass.
    with pytest.raises(KeyError):
        check_sweep(result, "full", directory=str(tmp_path))


def test_write_baseline_preserves_other_modes(tmp_path):
    result = SweepRunner(processes=1).run(demo_specs(2, 0.0), name="demo")
    write_baseline(result, "quick", directory=str(tmp_path))
    write_baseline(result, "full", directory=str(tmp_path))
    doc = json.loads(open(os.path.join(str(tmp_path), "demo.json")).read())
    assert set(doc["modes"]) == {"quick", "full"}


# ------------------------------------------------------------------ CLI


def test_cli_list(capsys):
    assert cli_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig1_network" in out and "fault_recovery" in out


def test_cli_check_passes_then_fails_on_perturbed_baseline(tmp_path, capsys):
    baselines = str(tmp_path / "baselines")
    args = ["--sweep", "table1_t3e", "--quick", "--processes", "1",
            "--baselines-dir", baselines]
    assert cli_main(args + ["--write-baselines"]) == 0
    assert cli_main(args + ["--check"]) == 0
    path = os.path.join(baselines, "table1_t3e.json")
    doc = json.loads(open(path).read())
    metric = sorted(doc["modes"]["quick"]["metrics"])[0]
    doc["modes"]["quick"]["metrics"][metric] = 1e9
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert cli_main(args + ["--check"]) == 2
    assert "REGRESSION" in capsys.readouterr().out


def test_cli_export_jsonl(tmp_path):
    out = str(tmp_path / "sweeps.jsonl")
    rc = cli_main(
        ["--sweep", "table1_t3e", "--quick", "--processes", "1",
         "--export", out]
    )
    assert rc == 0
    lines = open(out).read().strip().splitlines()
    assert lines and all(json.loads(li)["kind"] == "sweep" for li in lines)


def test_cli_run_leaves_working_directory_empty(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["--sweep", "table1_t3e", "--quick", "--processes", "1"]) == 0
    assert os.listdir(tmp_path) == []
