#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wan_bulk --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload's job is set up and run again and again for ``--seconds`` host
seconds (after one untimed warm-up job), each job's times are scaled to
a reference host speed by a calibration loop run between jobs, and each
metric is the median over those jobs.  ``--trace 1`` reports the
per-layer metrics instead:
it runs the shard attribution and the bare-link floor, then untraced
jobs, then traced jobs with every layer's entry points wrapped (see
``tracing.py``), and writes the buffered spans under ``.perfbench_out/``.

Every job's simulated results are checked: seed-independent invariants
always, every job of a run must produce the same results digest, a traced
job must match the untraced ones bit for bit, and for the default seed
the results must equal ``expected.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (ops;
every op of a run whose check failed counts as failed) and ``metrics``.
METRICS.md defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DEFAULT_SEED = 0
#: Bare-link packets per floor run: about one wan_bulk job's link packets.
FLOOR_PACKETS = 34_000
#: Share of a traced run's budget spent on untraced jobs.
UNTRACED_SHARE = 0.4
#: The shard attribution workload (ROADMAP's heavy two-site mix).
SHARD_PARAMS = {"mbytes": 16, "n_frames": 20, "heavy": True}


#: Host seconds the calibration loop takes on the reference host, the
#: speed every reported time is scaled to.
CAL_REFERENCE_S = 0.025


def calibrate(n: int = 30_000) -> float:
    """Host seconds of a fixed loop doing what the simulator's kernel does
    most (heap pushes and pops of small lists, dict counters) and no
    repository code, so no change to the simulator can move it.

    The shared host's speed drifts by about ±30% over tens of seconds and
    the simulator drifts with this loop, so each job's times are scaled
    by ``CAL_REFERENCE_S`` over the loop's time around the job (see
    METRICS.md).
    """
    heap: list = []
    counts: dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    t0 = time.perf_counter()
    for i in range(n):
        push(heap, [i * 0.5 % 97.0, i, None, (i,)])
        if len(heap) > 64:
            pop(heap)
        k = i & 511
        counts[k] = counts.get(k, 0) + 1
    return time.perf_counter() - t0


@dataclass
class Pass:
    """One job: raw host seconds of set-up and simulation, its outcome,
    and ``scale``, the factor to reference-host seconds.  The job itself
    is dropped, so a run's memory does not grow with its number of jobs."""

    setup_s: float
    wall_s: float
    schedule_s: float
    out: Any
    scale: float = 1.0


def pin_if_threaded(workload) -> None:
    """Keep a threaded job's threads on one CPU.

    On the shared host a hand-off between threads on two virtual CPUs is
    a cross-CPU wake-up whose price swings with the neighbours' load
    (25-35% run-to-run spread); on one CPU it is a plain context switch
    and the spread falls to about 5%.  The rank threads are serialized
    by the interpreter lock either way.
    """
    if workload.threaded:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_pass(workload, seed: int) -> Pass:
    gc.collect()
    t0 = time.perf_counter()
    job = workload.setup(seed)
    t1 = time.perf_counter()
    out = job.run()
    t2 = time.perf_counter()
    return Pass(t1 - t0, t2 - t1, job.schedule_s, out)


def run_passes(workload, seed: int, deadline: float, minimum: int = 1,
               between=None) -> list[Pass]:
    """Calibrated jobs back to back until ``deadline`` (at least
    ``minimum``); ``between(pass)`` runs after each job, untimed.  Each
    job's ``scale`` is the reference time of the calibration loop over
    the mean of its times just before and just after the job."""
    passes: list[Pass] = []
    before = calibrate()
    while len(passes) < minimum or time.perf_counter() < deadline:
        p = run_pass(workload, seed)
        if between is not None:
            between(p)
        after = calibrate()
        p.scale = CAL_REFERENCE_S * 2 / (before + after)
        passes.append(p)
        before = after
    return passes


def check(workload, seed: int, passes: list[Pass], expected: dict) -> list[str]:
    """Every error in the results of ``passes`` (empty when correct)."""
    from workloads import canonical, digest

    errors: list[str] = []
    digests = {digest(p.out.results) for p in passes}
    if len(digests) > 1:
        errors.append(
            f"{len(digests)} different results digests across jobs (traced included)"
        )
    results = passes[0].out.results
    errors += workload.check(results)
    want = expected.get(workload.name)
    if want is None:
        errors.append(f"no expected results for {workload.name} in expected.json")
        return errors
    keys = list(want) if seed == DEFAULT_SEED else list(workload.seed_free)
    for key in keys:
        got = canonical(results.get(key), workload.float_sig)
        if got != canonical(want.get(key), workload.float_sig):
            errors.append(f"{key}: got {got!r}, expected {want.get(key)!r}")
    return errors


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def per(num: float, den: float) -> float:
    return num / den if den else 0.0


def wall(passes: list[Pass]) -> float:
    """Median reference-host seconds of simulation per job."""
    return median([p.wall_s * p.scale for p in passes])


def e2e_metrics(passes: list[Pass]) -> dict[str, tuple[float, str]]:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (wall(passes), "s"),
        "setup_s": (median([p.setup_s * p.scale for p in passes]), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "work_per_s": (
            median([p.out.units / (p.wall_s * p.scale) for p in passes]), "1/s"),
    }


# -- the traced run -----------------------------------------------------------

def shard_metrics() -> dict[str, tuple[float, str]]:
    """Barrier, exchange and balance figures of a 2-shard run of the heavy
    two-site mix against its unsharded reference (all zero, with a note
    on standard error, when ``repro.shard`` is gone)."""
    try:
        from repro.shard import run_workload
    except ImportError:
        print("shard attribution skipped: repro.shard is not present", file=sys.stderr)
        return {k: (0, u) for k, u in (
            ("shard.rounds", "count"), ("shard.msgs", "count"),
            ("shard.null_syncs", "count"), ("shard.balance", "ratio"),
            ("shard.speedup_2", "ratio"), ("shard.identical", "bool"))}
    ref = run_workload("wan_multiflow", SHARD_PARAMS, shards=1)
    two = run_workload("wan_multiflow", SHARD_PARAMS, shards=2)
    walls = [s.window_wall_s for s in two.shard_stats]
    return {
        "shard.rounds": (two.rounds, "count"),
        "shard.msgs": (sum(s.msgs_sent for s in two.shard_stats), "count"),
        "shard.null_syncs": (sum(s.null_syncs for s in two.shard_stats), "count"),
        "shard.balance": (per(max(walls), sum(walls)), "ratio"),
        "shard.speedup_2": (per(ref.wall_s, two.wall_s), "ratio"),
        # Reported, not checked: the shard layer's own guarantee, which
        # this benchmark only attributes.
        "shard.identical": (int(two.metrics == ref.metrics), "bool"),
    }


def floor_per_packet() -> tuple[float, float]:
    """(untraced, traced) reference-host ns per packet of the bare link."""
    from floor import BareLink, run_floor
    from tracing import Tracer

    from repro.sim import Environment

    before = calibrate()
    untraced = median(
        [run_floor(FLOOR_PACKETS) for _ in range(5)]
    ) * 1e9 / FLOOR_PACKETS
    tracer = Tracer(span_limit=0)
    try:
        tracer.patch(Environment, "run", "sim.run")
        tracer.patch(BareLink, "send", "link.send")
        run_floor(FLOOR_PACKETS)
    finally:
        tracer.uninstall()
    stats, _ = tracer.snapshot()
    traced = (stats["sim.run"][1] + stats["link.send"][1]) / FLOOR_PACKETS
    scale = CAL_REFERENCE_S * 2 / (before + calibrate())
    return untraced * scale, traced * scale


def layer_metrics(
    untraced: list[Pass],
    traced: list[Pass],
    layers: list[tuple[dict, dict, int, int]],
    floor: tuple[float, float],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced jobs' span statistics.

    ``layers`` holds, per traced job, its span statistics, extra counters,
    dispatched kernel entries and freshly allocated heap entries.  Counts
    are the last job's (every job does the same work); times are totals
    over every traced job divided by the matching call count, scaled to
    the reference host by the traced jobs' median factor (round latency:
    the untraced jobs').
    """
    stats: dict[str, list] = {}
    for s, _, _, _ in layers:
        for name, rec in s.items():
            acc = stats.setdefault(name, [0, 0, 0, 0])
            for i in range(4):
                acc[i] += rec[i]
    n = len(traced)
    last_stats, last_counts, entries, pool_allocs = layers[-1]
    out = traced[-1].out
    pkts = out.link_pkts
    scale = median([p.scale for p in traced])

    def calls(name: str) -> int:
        return last_stats.get(name, [0])[0]

    def self_ns(name: str) -> float:
        rec = stats.get(name)
        return per(rec[1], rec[0]) * scale if rec else 0.0

    def outer_ns(name: str) -> float:
        rec = stats.get(name)
        return per(rec[3], rec[2]) * scale if rec else 0.0

    traced_wall_ns = sum(p.wall_s for p in traced) * 1e9
    drr_self = sum(rec[1] for name, rec in stats.items() if name.startswith("drr."))
    bulks = [r for r in out.results.values() if isinstance(r, dict) and "retransmits" in r]
    segments = sum(r["segments"] for r in bulks)
    retransmits = sum(r["retransmits"] for r in bulks)
    claimed_pkts = last_counts.get("drr.claimed_pkts", 0)
    restored_pkts = last_counts.get("drr.restored_pkts", 0)
    floor_untraced, floor_traced = floor
    kernel_ns = stats.get("sim.run", [0, 0])[1] * scale
    kernel_link_ns = per(kernel_ns + stats.get("link.send", [0, 0])[1] * scale, pkts * n)
    results = out.results
    rounds = out.units if out.round_s else 0
    round_ms = sorted(x * 1e3 * p.scale for p in untraced for x in p.out.round_s)

    def pct(q: float) -> float:
        return round_ms[min(len(round_ms) - 1, int(q * len(round_ms)))] if round_ms else 0.0

    return {
        "sim.entries": (entries, "count"),
        "sim.entries_per_pkt": (per(entries, pkts), "ratio"),
        "sim.pool_allocs": (pool_allocs, "count"),
        "sim.self_ns_per_entry": (per(kernel_ns, entries * n), "ns/entry"),
        "floor.ns_per_pkt": (floor_untraced, "ns/pkt"),
        "link.pkts": (pkts, "count"),
        "link.send_calls": (calls("link.send"), "count"),
        "link.send_ns": (self_ns("link.send"), "ns/call"),
        "link.marginal_ns": (kernel_link_ns - floor_traced if pkts else 0.0, "ns/pkt"),
        "link.drops.queue_full": (out.drops.get("queue_full", 0), "count"),
        "link.drops.wire_loss": (out.drops.get("wire_loss", 0), "count"),
        "host.send_ns": (self_ns("host.send"), "ns/call"),
        "host.receive_ns": (self_ns("host.receive"), "ns/call"),
        "gateway.receive_ns": (self_ns("gateway.receive"), "ns/call"),
        "switch.receive_calls": (calls("switch.receive"), "count"),
        "drr.puts": (calls("drr.put"), "count"),
        "drr.claimed": (calls("drr.claim"), "count"),
        "drr.claimed_pkts": (claimed_pkts, "count"),
        "drr.restored": (restored_pkts, "count"),
        "drr.unwind_ratio": (per(restored_pkts, claimed_pkts), "ratio"),
        "drr.self_pct": (100.0 * per(drr_self, traced_wall_ns), "%"),
        "flows.sink_calls": (calls("flows.sink"), "count"),
        "flows.sink_ns": (self_ns("flows.sink"), "ns/call"),
        "tcp.retransmits": (retransmits, "count"),
        "tcp.sent_per_delivered": (per(segments + retransmits, segments), "ratio"),
        "route.lookups": (calls("route.lookup"), "count"),
        "route.ns": (self_ns("route.lookup"), "ns/call"),
        "fluid.resolves": (results.get("resolves", 0), "count"),
        "fluid.mean_active": (results.get("mean_active", 0.0), "flows"),
        "fluid.advance_us": (self_ns("fluid.advance") / 1e3, "us/call"),
        "maxmin.calls": (calls("maxmin"), "count"),
        "maxmin.us_per_call": (self_ns("maxmin") / 1e3, "us/call"),
        "fluid.schedule_pct": (
            100.0 * per(median([p.schedule_s for p in untraced]),
                        median([p.setup_s for p in untraced])), "%"),
        "mpi.msgs": (calls("mpi.post"), "count"),
        "mpi.wan_msgs_per_round": (per(results.get("wan_messages", 0), rounds), "ratio"),
        "mpi.post_us": (self_ns("mpi.post") / 1e3, "us/call"),
        "mpi.collect_wait_us": (self_ns("mpi.collect") / 1e3, "us/call"),
        "mpi.collective_us": (outer_ns("mpi.collective") / 1e3, "us/call"),
        "mpi.round_ms_p50": (pct(0.50), "ms"),
        "mpi.round_ms_p99": (pct(0.99), "ms"),
        "trace.overhead": (per(wall(traced), wall(untraced)), "ratio"),
    }


def traced_run(workload, seed: int, seconds: float):
    """The ``--trace 1`` run: (all jobs, per-layer metrics).  ``check``
    then holds traced jobs to the untraced jobs' results digest."""
    from tracing import Tracer

    start = time.perf_counter()
    metrics = shard_metrics()  # before pinning: 2 shards need 2 CPUs
    floor = floor_per_packet()
    pin_if_threaded(workload)
    budget = max(0.0, seconds - (time.perf_counter() - start))
    warm = run_pass(workload, seed)
    untraced = run_passes(
        workload, seed, time.perf_counter() + UNTRACED_SHARE * budget, minimum=4
    )
    tracer = Tracer()
    layers = []

    def harvest(_p: Pass) -> None:
        stats, counts = tracer.snapshot()
        entries = sum(env.scheduled_count - env.queue_depth for env in tracer.envs)
        allocs = sum(env.pool_allocs for env in tracer.envs)
        layers.append((stats, counts, entries, allocs))
        tracer.reset()
        tracer.pass_id += 1

    tracer.install()
    try:
        traced = run_passes(workload, seed, start + seconds, between=harvest)
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(
        os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.json"),
        {"workload": workload.name, "seed": seed, "traced_jobs": len(traced)},
    )
    tracer.envs.clear()
    metrics.update(layer_metrics(untraced, traced, layers, floor))
    return [warm] + untraced + traced, metrics


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the result record (JSON line) to this file")
    ap.add_argument(
        "--update-expected", action="store_true",
        help="store this run's results as the workload's expected results "
             "(default seed only; state why in the commit)",
    )
    args = ap.parse_args(argv)
    if args.update_expected and args.seed != DEFAULT_SEED:
        ap.error("--update-expected needs the default seed")

    try:
        from workloads import WORKLOADS, canonical, digest
    except ImportError as exc:
        print(
            f"perfbench: cannot import the simulator ({exc}); "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)

    if args.trace:
        passes, metrics = traced_run(workload, args.seed, args.seconds)
    else:
        deadline = time.perf_counter() + args.seconds
        pin_if_threaded(workload)
        warm = run_pass(workload, args.seed)
        timed = run_passes(workload, args.seed, deadline)
        passes = [warm] + timed
        metrics = e2e_metrics(timed)
    if args.update_expected:
        expected[workload.name] = canonical(passes[0].out.results)
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
    errors = check(workload, args.seed, passes, expected)

    attempted = sum(p.out.ops for p in passes)
    failed = attempted if errors else sum(p.out.failed for p in passes)
    result_digest = digest(passes[0].out.results, workload.float_sig)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(passes)}  work unit: {workload.unit}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:>16.6g} {unit}")
    scale = median([p.scale for p in passes[1:]])
    print(f"  host speed: calibration loop {CAL_REFERENCE_S / scale * 1e3:.1f} ms median "
          f"(reference {CAL_REFERENCE_S * 1e3:.0f} ms; times are scaled to it)")
    print(f"  results digest {result_digest}")
    for err in errors:
        print(f"  CHECK FAILED: {err}")
    record = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "workload": workload.name, "seed": args.seed, "trace": args.trace,
                "digest": result_digest, **record,
            }) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main())
