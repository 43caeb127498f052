#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 lapxbench/spread.py --workload cold_sessions --runs 10

Runs the benchmark once per seed 1..runs (--trace 0), then prints for every
end-to-end metric its median over the runs and the distance between the
first and third quartiles (statistics.quantiles(values, n=4)) as a share
of that median, next to the metric's bound from BENCHMARK.json.  A
benchmark is steady when every spread, setup_s's included, is below a
third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    spec_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in range(1, args.runs + 1):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
        if done.returncode != 0:
            sys.exit("seed %d: run failed (exit %d)" % (seed, done.returncode))
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: incorrect responses" % seed)
        runs.append(result["metrics"])
        print("seed %d done" % seed, file=sys.stderr)
    print("%-34s %14s %8s %6s  values" % ("metric", "median", "spread", "bound"))
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print("%-34s %14.6g %8.4f %6s  %s" % (name, median, spread, bounds[name],
                                              " ".join("%.4g" % v for v in values)))


if __name__ == "__main__":
    main()
