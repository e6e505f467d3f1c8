"""Least-squares calibration of the Amdahl + log-overhead cost model.

Each FIRE module's measured time over processor counts is decomposed as

    t(p) = a/p + b + c*log2(p)

where ``a`` is perfectly-parallel work, ``b`` a serial floor, and ``c``
a tree-communication overhead (all non-negative).  The decomposition is
fit against the published Table 1 by bounded linear least squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted coefficients and fit quality for one module."""

    a: float  #: parallel work (seconds at p=1 from this term)
    b: float  #: serial floor (seconds)
    c: float  #: per-doubling overhead (seconds)
    residual_rms: float  #: RMS of absolute residuals (seconds)
    max_rel_error: float  #: worst relative error over the fit points

    def predict(self, p: np.ndarray | int) -> np.ndarray | float:
        """Model time(s) at processor count(s) ``p``."""
        p_arr = np.asarray(p, dtype=float)
        out = self.a / p_arr + self.b + self.c * np.log2(p_arr)
        return float(out) if np.isscalar(p) or p_arr.ndim == 0 else out


def fit_amdahl_log(pes: np.ndarray, times: np.ndarray) -> CalibrationResult:
    """Fit t(p) = a/p + b + c*log2(p) with a, b, c >= 0.

    The rows are weighted by 1/t so that small-p (large-t) rows do not
    drown out the overhead-dominated large-p rows — relative accuracy is
    what preserves the *speedup curve* shape.
    """
    pes = np.asarray(pes, dtype=float)
    times = np.asarray(times, dtype=float)
    if pes.shape != times.shape or pes.ndim != 1:
        raise ValueError("pes and times must be 1-D arrays of equal length")
    if pes.size == 0:
        raise ValueError("need at least one (pes, time) point")
    if not (np.all(np.isfinite(pes)) and np.all(np.isfinite(times))):
        raise ValueError("pes and times must be finite")
    if np.any(pes < 1) or np.any(times <= 0):
        raise ValueError("need pes >= 1 and positive times")
    # Imported here, not at module level: scipy costs about 44 MB and
    # 0.7 s per process, and nothing in the simulator stack but a fit
    # needs it (tests/test_import_footprint.py).
    from scipy.optimize import lsq_linear

    design = np.column_stack([1.0 / pes, np.ones_like(pes), np.log2(pes)])
    weights = 1.0 / times
    res = lsq_linear(design * weights[:, None], times * weights, bounds=(0, np.inf))
    a, b, c = res.x
    pred = design @ res.x
    residual_rms = float(np.sqrt(np.mean((pred - times) ** 2)))
    max_rel = float(np.max(np.abs(pred - times) / times))
    return CalibrationResult(
        a=float(a), b=float(b), c=float(c),
        residual_rms=residual_rms, max_rel_error=max_rel,
    )
