#!/usr/bin/env python3
"""Smoke mode of the benchmark: a one-second run of every workload run.py
knows (hot_cache too, which BENCHMARK.json does not list), untraced and
traced.

    python3 lapxbench/smoke.py

Checks that every metric BENCHMARK.json names prints with its unit, that
every run's responses match the in-process reference, and that the error
rate is 0.  Exits 0 when all of that holds.  Takes about a minute after
the build.
"""

import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s --trace %d" % (workload, trace)
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                problems.append("%s: exit %d" % (label, done.returncode))
                continue
            record = json.loads(lines[-2])["record"]
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (label, sorted(result)))
            if not result["correct"] or result["failed"] != 0 or record["error_rate"] != 0:
                problems.append("%s: error_rate %s" % (label, record["error_rate"]))
            metrics = result["metrics"]
            for m in table:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: %s missing" % (label, m["name"]))
                elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append("%s: %s printed as %s" % (label, m["name"], got))
            extra = set(metrics) - {m["name"] for m in table}
            if extra:
                problems.append("%s: unlisted metrics %s" % (label, sorted(extra)))
            print("%-30s ok=%s attempted=%d" % (label, not problems, result["attempted"]))
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
