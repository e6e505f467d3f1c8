"""Baseline files and the regression comparator.

A baseline is a committed JSON document holding, per execution mode
("full" / "quick"), the flattened ``label/metric`` values a sweep is
expected to reproduce.  Every sweep metric is a pure function of its
spec, so the comparator demands equality: each baseline metric is
``ok`` (``got == want``), a ``regression`` (any other value, down to
the last bit) or ``missing`` (no longer produced); metrics the sweep
newly produces are reported as ``new`` but do not fail the gate —
regenerate the baseline to adopt them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Mapping, Optional

BASELINES_ENV = "REPRO_SWEEP_BASELINES"
DEFAULT_BASELINES_DIR = os.path.join("benchmarks", "results", "baselines")


def default_baselines_dir() -> str:
    """``$REPRO_SWEEP_BASELINES``, else ``benchmarks/results/baselines``
    under the current directory, else under the source checkout root —
    so ``python -m repro.harness --check`` works from any directory of
    an editable install."""
    env = os.environ.get(BASELINES_ENV)
    if env:
        return env
    if os.path.isdir(DEFAULT_BASELINES_DIR):
        return DEFAULT_BASELINES_DIR
    import repro

    pkg = os.path.dirname(os.path.abspath(repro.__file__))
    checkout = os.path.dirname(os.path.dirname(pkg))
    candidate = os.path.join(checkout, DEFAULT_BASELINES_DIR)
    return candidate if os.path.isdir(candidate) else DEFAULT_BASELINES_DIR


@dataclass(frozen=True)
class Deviation:
    """One comparator verdict line."""

    metric: str
    status: str  # "ok" | "regression" | "missing" | "new"
    expected: Any = None
    actual: Any = None

    def format(self) -> str:
        if self.status == "new":
            return f"  new        {self.metric} = {self.actual}"
        if self.status == "missing":
            return f"  MISSING    {self.metric} (expected {self.expected})"
        tag = "ok        " if self.status == "ok" else "REGRESSION"
        return f"  {tag} {self.metric}: expected {self.expected}, got {self.actual}"


@dataclass
class RegressionReport:
    """Comparator output for one sweep/mode pair."""

    sweep: str
    mode: str
    deviations: list[Deviation]

    @property
    def regressions(self) -> list[Deviation]:
        return [d for d in self.deviations if d.status in ("regression", "missing")]

    @property
    def passed(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"regression gate [{self.sweep}/{self.mode}]: {verdict} "
            f"({len(self.regressions)} regressions, "
            f"{len(self.deviations)} metrics checked)"
        ]
        for d in self.deviations:
            if d.status != "ok":
                lines.append(d.format())
        return "\n".join(lines)


def compare(
    sweep: str,
    mode: str,
    actual: Mapping[str, Any],
    expected: Mapping[str, Any],
) -> RegressionReport:
    """Compare flattened sweep metrics against a baseline metric map."""
    deviations = []
    for metric in sorted(expected):
        want = expected[metric]
        if metric not in actual:
            deviations.append(Deviation(metric, "missing", expected=want))
            continue
        got = actual[metric]
        status = "ok" if got == want else "regression"
        deviations.append(Deviation(metric, status, expected=want, actual=got))
    for metric in sorted(set(actual) - set(expected)):
        deviations.append(Deviation(metric, "new", actual=actual[metric]))
    return RegressionReport(sweep=sweep, mode=mode, deviations=deviations)


def baseline_path(name: str, directory: Optional[str] = None) -> str:
    return os.path.join(directory or default_baselines_dir(), f"{name}.json")


def load_baseline(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_sweep(
    result: "Any",
    mode: str,
    path: Optional[str] = None,
    directory: Optional[str] = None,
) -> RegressionReport:
    """Gate a :class:`~repro.harness.runner.SweepResult` against its
    committed baseline file."""
    path = path or baseline_path(result.name, directory)
    doc = load_baseline(path)
    try:
        expected = doc["modes"][mode]["metrics"]
    except KeyError:
        raise KeyError(
            f"baseline {path} has no {mode!r} mode; "
            f"regenerate with --write-baselines"
        ) from None
    return compare(result.name, mode, result.metrics(), expected)


def write_baseline(
    result: "Any",
    mode: str,
    path: Optional[str] = None,
    directory: Optional[str] = None,
) -> str:
    """Write/update one mode of a baseline file, preserving the other
    modes."""
    path = path or baseline_path(result.name, directory)
    modes = load_baseline(path)["modes"] if os.path.exists(path) else {}
    modes[mode] = {"metrics": result.metrics()}
    doc = {"sweep": result.name, "modes": modes}
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
