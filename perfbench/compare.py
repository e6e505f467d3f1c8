#!/usr/bin/env python3
"""Summarise one result file, or compare two (A = parent, B = change).

    python3 perfbench/compare.py A.jsonl            # medians and quartiles
    python3 perfbench/compare.py A.jsonl B.jsonl    # plus bounds and movers

Result files are the JSON lines ``run.py --out`` appends (``suite.py``
writes them).  For each workload the comparison prints every end-to-end
metric's median and quartiles on both sides and flags a metric whose
median got worse by more than its bound in BENCHMARK.json, or whose own
spread on A exceeds the bound (unresolved).  It then lists the per-layer
metrics of the traced runs that moved most, so a regression names its
layer.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
#: Per-layer metrics listed per workload, largest relative move first.
TOP_MOVERS = 8


def load(path: str) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values over the file's runs."""
    out: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            out[key]["correct"].append(float(rec["correct"]))
            for name, m in rec["metrics"].items():
                out[key][name].append(float(m["value"]))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def summary(path: str, spec: dict) -> None:
    data = load(path)
    for w in spec["workloads"]:
        runs = data.get((w["name"], 0))
        if not runs:
            continue
        print(f"{w['name']}: {len(runs['correct'])} runs, "
              f"{int(sum(runs['correct']))} correct")
        for m in spec["end_to_end"]:
            vals = runs.get(m["name"], [])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            print(f"  {m['name']:<14} {med:>14.6g} {m['unit']:<5} "
                  f"[{q1:.6g} .. {q3:.6g}]  spread {spread(vals):.3f} "
                  f"(bound {m['bound']})")


def compare(path_a: str, path_b: str, spec: dict) -> int:
    a, b = load(path_a), load(path_b)
    regressions = 0
    for w in spec["workloads"]:
        name = w["name"]
        ra, rb = a.get((name, 0)), b.get((name, 0))
        if not ra or not rb:
            print(f"{name}: missing on {'A' if not ra else 'B'}")
            continue
        print(f"{name}: A {len(ra['correct'])} runs ({int(sum(ra['correct']))} correct), "
              f"B {len(rb['correct'])} runs ({int(sum(rb['correct']))} correct)")
        for m in spec["end_to_end"]:
            va, vb = ra.get(m["name"], []), rb.get(m["name"], [])
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change if m["better"] == "lower" else -change
            if spread(va) > m["bound"]:
                verdict = "UNRESOLVED (A's spread exceeds the bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"  {m['name']:<14} A {qa[1]:>12.6g} [{qa[0]:.4g}..{qa[2]:.4g}]  "
                  f"B {qb[1]:>12.6g} [{qb[0]:.4g}..{qb[2]:.4g}]  "
                  f"{change:+.1%} {m['unit']}  {verdict}")
        la, lb = a.get((name, 1)), b.get((name, 1))
        if la and lb:
            moved = []
            for metric in set(la) & set(lb) - {"correct"}:
                ma, mb = statistics.median(la[metric]), statistics.median(lb[metric])
                if ma == mb:
                    continue
                rel = (mb - ma) / abs(ma) if ma else float("inf")
                moved.append((abs(rel), metric, ma, mb, rel))
            moved.sort(reverse=True)
            print("  per-layer metrics that moved most (traced runs):")
            for _, metric, ma, mb, rel in moved[:TOP_MOVERS]:
                print(f"    {metric:<26} {ma:>12.6g} -> {mb:<12.6g} {rel:+.1%}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="+", help="one or two result files")
    args = ap.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    if len(args.files) == 1:
        summary(args.files[0], spec)
        return 0
    if len(args.files) != 2:
        ap.error("give one or two result files")
    return compare(args.files[0], args.files[1], spec)


if __name__ == "__main__":
    sys.exit(main())
