"""Tests for machine specs, the registry, calibration, and the Table-1
T3E performance model (experiment E1's foundation)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.machines import (
    CRAY_T3E_600,
    CRAY_T90,
    IBM_SP2,
    MACHINES,
    MachineKind,
    REF_VOXELS,
    TABLE1,
    T3EPerformanceModel,
    fit_amdahl_log,
    machine,
)
from repro.machines.t3e_model import TABLE1_PES, default_model


class TestRegistry:
    def test_paper_installed_base_present(self):
        """Section 1 lists the machines; all must be registered."""
        names = set(MACHINES)
        for required in (
            "Cray T3E-600", "Cray T3E-1200", "Cray T90", "IBM SP2",
            "SGI Onyx 2 (GMD)", "Sun E500",
        ):
            assert required in names

    def test_t3e_is_512_node_mpp(self):
        assert CRAY_T3E_600.nodes == 512
        assert CRAY_T3E_600.kind is MachineKind.MPP

    def test_t90_is_10_proc_vector(self):
        assert CRAY_T90.nodes == 10
        assert CRAY_T90.kind is MachineKind.VECTOR

    def test_sites(self):
        assert CRAY_T3E_600.site == "juelich"
        assert IBM_SP2.site == "gmd"

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            machine("Connection Machine CM-5")

    def test_peak_gflops(self):
        assert CRAY_T3E_600.peak_gflops == pytest.approx(512 * 0.6)

    def test_internal_transfer_time_alpha_beta(self):
        t = CRAY_T3E_600.internal_transfer_time(3_000_000)
        assert t == pytest.approx(1.5e-6 + 3_000_000 / 300e6)


class TestCalibration:
    def test_perfect_model_recovered(self):
        pes = np.array([1, 2, 4, 8, 16, 32, 64], dtype=float)
        times = 10.0 / pes + 0.5 + 0.05 * np.log2(pes)
        fit = fit_amdahl_log(pes, times)
        assert fit.a == pytest.approx(10.0, rel=1e-6)
        assert fit.b == pytest.approx(0.5, rel=1e-5)
        assert fit.c == pytest.approx(0.05, rel=1e-4)
        assert fit.max_rel_error < 1e-6

    def test_coefficients_nonnegative(self):
        # Decreasing-overhead data would want negative c; bounds forbid it.
        pes = np.array([1, 2, 4, 8], dtype=float)
        times = np.array([8.0, 4.0, 2.0, 1.0])
        fit = fit_amdahl_log(pes, times)
        assert fit.a >= 0 and fit.b >= 0 and fit.c >= 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_amdahl_log(np.array([1, 2]), np.array([1.0]))

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            fit_amdahl_log(np.array([0.5, 2]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            fit_amdahl_log(np.array([1, 2]), np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["pes", "times"])
    def test_non_finite_rejected(self, where, bad):
        """Rejected up front: NaN used to fail inside LAPACK and inf to
        return NaN coefficients."""
        pes = np.array([1.0, 2.0, 4.0])
        times = np.array([4.0, 2.5, 1.5])
        {"pes": pes, "times": times}[where][1] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_amdahl_log(pes, times)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            fit_amdahl_log(np.array([]), np.array([]))

    @given(
        a=st.floats(0.5, 100), b=st.floats(0.0, 1.0), c=st.floats(0.0, 0.2)
    )
    def test_roundtrip_property(self, a, b, c):
        """Property: data generated by the model is recovered (rel. err small)."""
        pes = np.array(TABLE1_PES, dtype=float)
        times = a / pes + b + c * np.log2(pes)
        fit = fit_amdahl_log(pes, times)
        pred = fit.predict(pes)
        np.testing.assert_allclose(pred, times, rtol=1e-4, atol=1e-9)


class TestTable1Model:
    @pytest.fixture(scope="class")
    def model(self):
        return T3EPerformanceModel.calibrated()

    def test_published_table_shape(self):
        assert len(TABLE1) == 9
        assert TABLE1[0].pes == 1 and TABLE1[-1].pes == 256
        assert TABLE1[0].total == 111.00
        assert TABLE1[-1].speedup == 110.5

    def test_rvo_dominates_all_rows(self):
        """Paper: 'The most time consuming module is the RVO.'"""
        for row in TABLE1:
            assert row.rvo > row.motion > row.filter

    def test_model_matches_published_totals(self, model):
        """Totals within 5% of the published Table 1 at every PE count."""
        for row in TABLE1:
            got = model.total_time(row.pes)
            assert got == pytest.approx(row.total, rel=0.05), f"p={row.pes}"

    def test_model_matches_published_rvo_tightly(self, model):
        for row in TABLE1:
            assert model.rvo.time(row.pes) == pytest.approx(row.rvo, rel=0.03)

    def test_speedup_curve_matches(self, model):
        """Speedups within 5%: ~2.0 at 2 PEs ... ~110.5 at 256 PEs."""
        for row in TABLE1[1:]:
            assert model.speedup(row.pes) == pytest.approx(row.speedup, rel=0.05)

    def test_reasonable_speedup_up_to_128(self, model):
        """Paper: 'a reasonable speedup is achieved for up to 128 PEs'."""
        assert model.speedup(128) > 0.6 * 128

    def test_speedup_monotone_increasing(self, model):
        speedups = [model.speedup(p) for p in TABLE1_PES]
        assert speedups == sorted(speedups)

    def test_larger_images_better_speedups(self, model):
        """Paper: 'Larger images take more time, but achieve better
        speedups' (E7)."""
        big = 128 * 128 * 32
        assert model.total_time(256, big) > model.total_time(256, REF_VOXELS)
        assert model.speedup(256, big) > model.speedup(256, REF_VOXELS) * 1.5

    def test_module_subset_selection(self, model):
        """Modules are optional (GUI-controlled); subsets must sum."""
        t_all = model.total_time(16)
        t_no_rvo = model.total_time(16, enabled=("filter", "motion"))
        assert t_no_rvo == pytest.approx(
            model.filter.time(16) + model.motion.time(16)
        )
        assert t_no_rvo < t_all / 10  # RVO dominates

    def test_unknown_module_rejected(self, model):
        with pytest.raises(KeyError):
            model.total_time(4, enabled=("filter", "warp"))

    def test_zero_pes_rejected(self, model):
        with pytest.raises(ValueError):
            model.filter.time(0)

    def test_table_rows_structure(self, model):
        rows = model.table()
        assert [r["pes"] for r in rows] == list(TABLE1_PES)
        for r in rows:
            assert r["total"] == pytest.approx(
                r["filter"] + r["motion"] + r["rvo"]
            )

    def test_format_table_contains_all_pe_counts(self, model):
        text = model.format_table()
        for p in TABLE1_PES:
            assert f"\n{p:>6d} " in text or text.startswith(f"{p:>6d} ")

    def test_default_model_cached(self):
        assert default_model() is default_model()
