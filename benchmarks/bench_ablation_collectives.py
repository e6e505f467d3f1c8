"""Ablation — metacomputing-aware (hierarchical) vs naive collectives.

The paper's requirement for the MPI library: "the communication both
inside and between the machines that form the metacomputer should be
efficient."  Two angles:

* the two-strategy ablation: virtual elapsed time of a broadcast +
  reduce pattern with topology-aware trees (``strategy="hierarchical"``)
  vs flat binomial trees (``strategy="flat"``) that cross the WAN
  indiscriminately;
* the full strategy ablation via the committed ``collectives`` sweep:
  every :data:`~repro.metampi.STRATEGIES` entry runs the coupled-model
  exchange patterns (allreduce / coupler / TRACE boundary exchange) on
  the simulated Juelich<->Sankt Augustin testbed.  Hierarchical must
  beat naive on completion time for every pattern, all strategies must
  produce identical results, and the per-strategy WAN message counts
  are pinned exactly by the regression gate.

REPRO_BENCH_QUICK=1 selects the quick grid (32 KByte payloads, 2
rounds) and the matching baseline mode.
"""

import os

import pytest

from repro.harness import SweepRunner, check_sweep, sweep_specs
from repro.machines import CRAY_T3E_600, IBM_SP2
from repro.metampi import STRATEGIES, MetaMPI, SUM

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
MODE = "quick" if QUICK else "full"
BASELINES = os.path.join(os.path.dirname(__file__), "results", "baselines")
PATTERNS = ("allreduce", "coupler", "trace")


@pytest.fixture(scope="module")
def sweep():
    runner = SweepRunner(timeout=300.0)
    return runner.run(sweep_specs("collectives", quick=QUICK), name="collectives")


def run_collectives(strategy: str, payload_kb: int = 512, rounds: int = 3):
    payload = bytes(payload_kb * 1024)

    def main(comm):
        for _ in range(rounds):
            data = comm.bcast(payload if comm.rank == 0 else None, root=0)
            comm.reduce(len(data), op=SUM, root=0)
        comm.barrier()

    mc = MetaMPI(wallclock_timeout=60, strategy=strategy)
    mc.add_machine(CRAY_T3E_600, ranks=8)
    mc.add_machine(IBM_SP2, ranks=8)
    mc.run(main)
    return mc.elapsed


def test_hierarchical_collectives_win(report, benchmark):
    benchmark.pedantic(
        run_collectives,
        args=("hierarchical",),
        kwargs={"rounds": 1},
        rounds=1,
        iterations=1,
    )
    flat = run_collectives("flat")
    hier = run_collectives("hierarchical")
    report.add(
        "Ablation: topology-aware collectives",
        (
            f"bcast+reduce x3, 512 KByte, T3E(8)+SP2(8):\n"
            f"  flat binomial trees:   {flat * 1e3:8.2f} ms virtual\n"
            f"  hierarchical (aware):  {hier * 1e3:8.2f} ms virtual\n"
            f"  speedup: {flat / hier:.2f}x"
        ),
    )
    assert hier < flat


def test_gain_grows_with_island_size(report, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [f"{'ranks/machine':>14} {'flat (ms)':>10} {'aware (ms)':>11} {'gain':>6}"]
    for n in (2, 4, 8):
        def run(strategy, n=n):
            payload = bytes(256 * 1024)

            def main(comm):
                comm.bcast(payload if comm.rank == 0 else None, root=0)
                comm.barrier()

            mc = MetaMPI(wallclock_timeout=60, strategy=strategy)
            mc.add_machine(CRAY_T3E_600, ranks=n)
            mc.add_machine(IBM_SP2, ranks=n)
            mc.run(main)
            return mc.elapsed

        flat, hier = run("flat"), run("hierarchical")
        lines.append(
            f"{n:>14} {flat * 1e3:>10.2f} {hier * 1e3:>11.2f} "
            f"{flat / hier:>5.1f}x"
        )
    report.add("Ablation: collective gain vs island size", "\n".join(lines))


def test_benchmark_hierarchical_bcast(benchmark):
    result = benchmark.pedantic(
        run_collectives, args=("hierarchical",), kwargs={"rounds": 1},
        rounds=3, iterations=1,
    )
    assert result > 0


def _pattern_metric(sweep, pattern: str, metric: str):
    for label, value in sweep.metrics().items():
        if f"pattern={pattern}" in label and label.endswith(f"/{metric}"):
            return value
    raise KeyError(f"{pattern}/{metric} not in sweep metrics")


def test_strategy_ablation_report(report, sweep):
    strategies = sorted(STRATEGIES)
    rows = [
        f"{'pattern':<10} "
        + " ".join(f"{s + ' (ms)':>20}" for s in strategies)
        + f" {'hier/naive':>11}"
    ]
    for pattern in PATTERNS:
        cells = []
        for strat in strategies:
            ms = _pattern_metric(sweep, pattern, f"elapsed_ms_{strat}")
            msgs = int(_pattern_metric(sweep, pattern, f"wan_messages_{strat}"))
            cells.append(f"{ms:>11.2f} ({msgs:>3}w)")
        ratio = _pattern_metric(sweep, pattern, "hier_over_naive")
        rows.append(f"{pattern:<10} " + " ".join(cells) + f" {ratio:>11.3f}")
    rows.append("(Nw = WAN messages; virtual ms on the testbed WAN)")
    report.add(
        "Collective strategies: ablation on the coupled-model patterns",
        "\n".join(rows),
    )

    # The tentpole claim: the hierarchical strategy beats the naive one
    # on completion time for the coupler and TRACE exchange patterns
    # (and the plain allreduce) on the real testbed cost model.
    for pattern in PATTERNS:
        ratio = _pattern_metric(sweep, pattern, "hier_over_naive")
        assert ratio < 1.0, f"hierarchical lost to naive on {pattern}: {ratio}"
    # Every strategy computed the same answer.
    for pattern in PATTERNS:
        assert _pattern_metric(sweep, pattern, "results_identical") == 1.0


def test_hierarchical_wan_message_reduction(sweep):
    # Island aggregation halves WAN message count vs the star on the
    # reduce/bcast patterns and does far better on the N^2 alltoall.
    for pattern in PATTERNS:
        hier = _pattern_metric(sweep, pattern, "wan_messages_hierarchical")
        naive = _pattern_metric(sweep, pattern, "wan_messages_naive")
        assert hier <= naive / 2, (pattern, hier, naive)
    trace_hier = _pattern_metric(sweep, "trace", "wan_messages_hierarchical")
    trace_naive = _pattern_metric(sweep, "trace", "wan_messages_naive")
    assert trace_hier <= trace_naive / 3


def test_hierarchical_allreduce_single_wan_crossing(report):
    """One allreduce crosses the WAN exactly once per direction."""

    def main(comm):
        comm.allreduce(comm.rank + 1, op=SUM)

    mc = MetaMPI(wallclock_timeout=60, strategy="hierarchical")
    mc.add_machine(CRAY_T3E_600, ranks=3)
    mc.add_machine(IBM_SP2, ranks=2)
    mc.run(main)
    summary = mc.runtime.traffic_summary()
    wan = summary["hierarchical.allreduce"].get("wan", {"messages": 0})
    report.add(
        "Collective WAN crossings: hierarchical allreduce",
        f"T3E(3)+SP2(2), one allreduce: {wan['messages']} WAN messages "
        f"(leader reduce + leader bcast = 2)",
    )
    assert wan["messages"] == 2


def test_sweep_regression_gate(report, sweep):
    gate = check_sweep(sweep, MODE, directory=BASELINES)
    report.add("Collectives gate: regression vs committed baseline", gate.format())
    assert gate.passed, gate.format()
