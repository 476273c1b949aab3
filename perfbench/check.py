#!/usr/bin/env python3
"""Repeat-run checks of the benchmark, run from the repository root.

  python3 perfbench/check.py spread --workload fpt_solvers --runs 10
      Runs the benchmark once per seed and prints, per end-to-end metric,
      the median and the quartile spread (Q3 - Q1) / median next to the
      metric's bound from BENCHMARK.json. "steady" means the spread is
      below a third of the bound.

  python3 perfbench/check.py selfcheck --workload thm45_tau_td --seed 7
      Makes two traced runs with one seed and checks that every exact
      counter (unit "count") reads the same in both.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result: {result}")
    return result["metrics"]


def spread(bench, args):
    values = {}
    for i in range(args.runs):
        metrics = run_once(bench, args.workload, args.seed0 + i, 0)
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])
        print(f"run {i + 1}/{args.runs} done", file=sys.stderr)
    steady = True
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        ok = share < metric["bound"] / 3
        steady &= ok
        print(f"{metric['name']:<16} median {med:14.6f} {metric['unit']:<5} "
              f"spread {share:7.4f}  bound {metric['bound']:.2f}  "
              f"{'steady' if ok else 'NOT STEADY'}  "
              f"[{' '.join(f'{v:.4g}' for v in vals)}]")
    return 0 if steady else 1


def selfcheck(bench, args):
    counts = [
        {n: m["value"] for n, m in run_once(bench, args.workload, args.seed, 1).items()
         if m["unit"] == "count"}
        for _ in range(2)
    ]
    differing = [n for n in counts[0] if counts[0][n] != counts[1].get(n)]
    for name in sorted(counts[0]):
        mark = "DIFFERS" if name in differing else "same"
        print(f"{name:<32} {counts[0][name]:>14.0f} {counts[1][name]:>14.0f}  {mark}")
    return 1 if differing else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("check", choices=["spread", "selfcheck"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bench = load_benchmark()
    sys.exit(spread(bench, args) if args.check == "spread" else selfcheck(bench, args))


if __name__ == "__main__":
    main()
