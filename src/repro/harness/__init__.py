"""repro.harness — parallel experiment sweeps with gated results.

The paper's results are sweeps (throughput vs. MTU, Table-1 scaling,
goodput vs. loss rate); this package declares those grids as hashable
:class:`ScenarioSpec` points, executes them over a process pool, and
gates summaries against committed baselines:

    from repro.harness import SweepRunner, check_sweep, sweep_specs

    runner = SweepRunner()
    result = runner.run(sweep_specs("fig1_network", quick=True),
                        name="fig1_network")
    report = check_sweep(result, mode="quick")
    assert report.passed, report.format()

``python -m repro.harness --quick --check`` is the CI entry point.
"""

from repro.harness.baseline import (
    Deviation,
    RegressionReport,
    Tolerance,
    baseline_path,
    check_sweep,
    compare,
    load_baseline,
    write_baseline,
)
from repro.harness.registry import available, get_scenario, scenario
from repro.harness.runner import ScenarioResult, SweepResult, SweepRunner
from repro.harness.spec import ParameterGrid, ScenarioSpec, make_spec
from repro.harness.sweeps import SWEEPS, demo_specs, get_sweep, sweep_specs

__all__ = [
    "Deviation",
    "ParameterGrid",
    "RegressionReport",
    "SWEEPS",
    "ScenarioResult",
    "ScenarioSpec",
    "SweepResult",
    "SweepRunner",
    "Tolerance",
    "available",
    "baseline_path",
    "check_sweep",
    "compare",
    "demo_specs",
    "get_scenario",
    "get_sweep",
    "load_baseline",
    "make_spec",
    "scenario",
    "sweep_specs",
    "write_baseline",
]
