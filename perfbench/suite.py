#!/usr/bin/env python3
"""Run every workload several times and print every end-to-end metric.

    python3 perfbench/suite.py --runs 5 --out A.jsonl [--traced 1]

Runs ``run.py`` once per workload and seed (seeds 1..runs), workloads
interleaved so slow drift of the host spreads over all of them, each in a
fresh process (``peak_rss_mb`` is per process).  ``--traced`` adds that
many traced runs per workload.  Appends every result record to ``--out``
and prints the summary ``compare.py`` gives for one file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    plan = [(0, s) for s in range(1, args.runs + 1)]
    plan += [(1, s) for s in range(1, args.traced + 1)]
    for trace, seed in plan:
        for w in spec["workloads"]:
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                "--trace", str(trace), "--out", args.out,
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode:
                sys.stderr.write(done.stdout + done.stderr)
                return done.returncode
            rec = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"{w['name']} seed {seed} trace {trace}: correct {rec['correct']}, "
                  f"{rec['failed']} of {rec['attempted']} ops failed")
    from compare import summary

    summary(args.out, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
