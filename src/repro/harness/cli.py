"""``python -m repro.harness`` — run sweeps, check or write baselines.

The CI ``sweep-regression`` job runs::

    python -m repro.harness --quick --check \
        --export benchmarks/results/sweeps.jsonl

which executes every baselined sweep in quick mode over a process pool
and exits non-zero if any metric regresses beyond its
committed tolerance.  ``--write-baselines`` regenerates the baseline
files after an intentional behavior change.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.harness.baseline import check_sweep, write_baseline
from repro.harness.runner import SweepResult, SweepRunner
from repro.harness.sweeps import SWEEPS, get_sweep
from repro.util.jsonl import write_jsonl


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Run experiment sweeps with regression gates.",
    )
    parser.add_argument(
        "--sweep",
        action="append",
        dest="sweeps",
        metavar="NAME",
        help="sweep to run (repeatable; default: all baselined sweeps)",
    )
    parser.add_argument("--list", action="store_true", help="list sweeps and exit")
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run ONE scenario (the first of the selected sweep) inline "
        "under cProfile and print the top-25 cumulative functions",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized transfers and grids"
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="pool size (default: CPUs; 1 runs inline)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="per-scenario timeout in process-pool mode (seconds)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate results against committed baselines; exit 2 on regression",
    )
    parser.add_argument(
        "--write-baselines",
        action="store_true",
        help="write/refresh baseline files from this run",
    )
    parser.add_argument(
        "--baselines-dir",
        default=None,
        help="baseline directory (default: benchmarks/results/baselines)",
    )
    parser.add_argument(
        "--export",
        metavar="PATH",
        default=None,
        help="write all sweep metrics as telemetry-schema JSONL",
    )
    parser.add_argument(
        "--junit-xml",
        metavar="PATH",
        default=None,
        help="write the regression-gate verdicts as JUnit XML "
        "(one testsuite per sweep, one testcase per baseline metric)",
    )
    return parser


def run_profile(args) -> int:
    """The ``--profile`` path: one scenario, inline, under cProfile.

    Profiles the first scenario of the selected sweep (``--sweep`` to
    choose, ``--quick`` for the CI-sized variant) in this process, with
    no pool, so the profile shows the simulator's own hot path,
    and prints the top 25 functions by cumulative time.  Perf work
    starts from this data, not from guesses.
    """
    import cProfile
    import pstats

    from repro.harness.registry import get_scenario

    name = (args.sweeps or sorted(SWEEPS))[0]
    specs = get_sweep(name).specs(args.quick)
    if not specs:
        print(f"sweep {name} has no scenarios")
        return 1
    spec = specs[0]
    fn = get_scenario(spec.scenario)
    print(f"profiling sweep {name}, scenario {spec.label()}")
    profiler = cProfile.Profile()
    profiler.enable()
    metrics = dict(fn(spec))
    profiler.disable()
    for key in sorted(metrics):
        value = metrics[key]
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {key} = {shown}")
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
    return 0


def write_junit_xml(path: str, reports, results) -> None:
    """Write the regression-gate verdicts as JUnit XML.

    One ``<testsuite>`` per sweep, one ``<testcase>`` per baseline
    metric; regressions and missing metrics become ``<failure>``
    elements, scenario crashes become ``<error>`` entries — the shape CI
    annotates directly.
    """
    import xml.etree.ElementTree as ET

    by_name = {r.name: r for r in results}
    root = ET.Element("testsuites")
    total = failures = errors = 0
    for report in reports:
        suite = ET.SubElement(
            root, "testsuite", name=f"sweep.{report.sweep}.{report.mode}"
        )
        n = f = 0
        for d in report.deviations:
            case = ET.SubElement(
                suite,
                "testcase",
                classname=f"sweep.{report.sweep}",
                name=d.metric,
            )
            n += 1
            if d.status in ("regression", "missing"):
                f += 1
                fail = ET.SubElement(
                    case,
                    "failure",
                    message=f"{d.status}: expected {d.expected!r}, "
                    f"got {d.actual!r}",
                )
                fail.text = d.format().strip()
        e = 0
        result = by_name.get(report.sweep)
        if result is not None:
            for r in result.results:
                if not r.ok:
                    case = ET.SubElement(
                        suite,
                        "testcase",
                        classname=f"sweep.{report.sweep}",
                        name=r.spec.label(),
                    )
                    ET.SubElement(case, "error", message=str(r.error))
                    n += 1
                    e += 1
        suite.set("tests", str(n))
        suite.set("failures", str(f))
        suite.set("errors", str(e))
        total += n
        failures += f
        errors += e
    root.set("tests", str(total))
    root.set("failures", str(failures))
    root.set("errors", str(errors))
    ET.ElementTree(root).write(path, encoding="unicode", xml_declaration=True)


def format_summary(results, reports) -> str:
    """The final one-line-per-sweep verdict table.

    Printed after every sweep has run so a multi-regression ``--check``
    run ends with a single screen the failure can be read off, instead
    of the verdict being buried per-sweep pages up.
    """
    by_name = {r.sweep: r for r in reports}
    header = (
        f"{'sweep':<16} {'scenarios':>9} {'failed':>6} "
        f"{'regressions':>11} {'wall_s':>8}  verdict"
    )
    lines = ["", "== sweep summary " + "=" * (len(header) - 17), header]
    exit_code = 0
    for result in results:
        report = by_name.get(result.name)
        n_reg = len(report.regressions) if report is not None else 0
        ok = result.ok and n_reg == 0
        if not ok:
            exit_code = 2
        lines.append(
            f"{result.name:<16} {len(result.results):>9} {result.failed:>6} "
            f"{n_reg if report is not None else '-':>11} "
            f"{result.wall_time:>8.2f}  {'PASS' if ok else 'FAIL'}"
        )
    lines.append(
        "overall: PASS" if exit_code == 0 else "overall: FAIL (exit 2)"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.profile:
        return run_profile(args)

    if args.list:
        for name in sorted(SWEEPS):
            sweep = SWEEPS[name]
            print(f"{name:<16} {len(sweep.specs(args.quick)):>3} scenarios  "
                  f"{sweep.description}")
        return 0

    names = args.sweeps or sorted(SWEEPS)
    mode = "quick" if args.quick else "full"
    runner = SweepRunner(processes=args.processes, timeout=args.timeout)

    results: list[SweepResult] = []
    reports = []
    failed_gate = False
    for name in names:
        sweep = get_sweep(name)
        result = runner.run(sweep.specs(args.quick), name=name)
        results.append(result)
        print(result.format_table())
        if not result.ok:
            failed_gate = True
            print(f"sweep {name}: {result.failed} scenario(s) failed")
        if args.write_baselines:
            path = write_baseline(
                result,
                mode,
                directory=args.baselines_dir,
                tolerances=dict(sweep.tolerances),
            )
            print(f"wrote baseline {path} [{mode}]")
        elif args.check:
            report = check_sweep(result, mode, directory=args.baselines_dir)
            reports.append(report)
            print(report.format())
            if not report.passed:
                failed_gate = True
        print()

    if args.junit_xml:
        write_junit_xml(args.junit_xml, reports, results)
        print(f"wrote JUnit XML to {args.junit_xml}")
    if args.check:
        print(format_summary(results, reports))

    if args.export:
        n = write_jsonl(args.export, (row for r in results for row in r.rows()))
        print(f"exported {n} metric rows to {args.export}")

    return 2 if failed_gate else 0
