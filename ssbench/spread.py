#!/usr/bin/env python3
"""Runs the benchmark several times per workload, one seed per run, and
prints each end-to-end metric's median, quartiles and spread (quartile
distance over median) next to the bound in BENCHMARK.json.

    python3 ssbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Run from the repository root. With no workload named, every workload in
BENCHMARK.json runs. Exits non-zero if a run fails or a spread (other than
setup_s) exceeds a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            run = subprocess.run(command, capture_output=True, text=True)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{run.stderr[-3000:]}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} failed requests")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(median) if median else 0.0
            mark = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                mark = "  > bound/3"
                steady = False
            print(f"  {name:<24} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.3f} {bounds[name]:>6}{mark}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
