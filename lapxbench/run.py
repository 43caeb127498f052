#!/usr/bin/env python3
"""lapxd end-to-end benchmark.

Run from the repository root:

    python3 lapxbench/run.py --workload hot_cache --seed 1 --seconds 10 --trace 0

Builds `lapx_cli` and the `lapx_loadgen` load generator from source (into
$CARGO_TARGET_DIR, default `.bench_build`), then for the workload:

1. baseline: replays the seeded request stream through an in-process
   Service (the reference transcript and the in-process latencies);
2. socket: spawns `lapx_cli serve --socket ... --executors 2 --threads 2`,
   sets it up 31 times (setup_s is the median), and replays the same
   stream closed-loop over its Unix socket, checking every response
   against the reference;
3. traced (--trace 1 only): replays the stream through the layers' public
   functions with a span around each call.

Prints a record line (host, toolchain, daemon flags, seed, request and
sample counts, error rate) and, last, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
Exits non-zero when any response differs from the reference.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# BENCHMARK.json lists cold_sessions and mutate_requery; hot_cache runs by
# hand (its microsecond round trips are too noisy to bound, see README).
WORKLOADS = ("hot_cache", "cold_sessions", "mutate_requery")
PINGS = 2000
STEP_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

# name -> unit; the order is the order printed.
END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "query_p50_ms": "ms",
    "write_p50_ms": "ms",
    "setup_s": "s",
    "daemon_rss_mb": "MiB",
}
# Measured and recorded, but not bounded in BENCHMARK.json: on the 4-vCPU
# test VM their quartile spread over ten seeds reached 0.29-0.38 of the
# median (host load moves the hot_cache tail; a cold_sessions run has a few
# hundred writes), beyond 0.25, the largest bound BENCHMARK.json may set.
TAILS = ("latency_p99_ms", "query_p99_ms", "write_p99_ms")
PER_LAYER = {
    "server.hold_ms_p50": "ms",
    "server.hold_ms_p99": "ms",
    "server.ping_rtt_us_p50": "us",
    "protocol.parse_us_p50": "us",
    "protocol.fingerprint_us_p50": "us",
    "session_store.get_us_p50": "us",
    "session_store.put_ms_p50": "ms",
    "session_store.mutate_ms_p50": "ms",
    "result_cache.get_us_p50": "us",
    "result_cache.hit_ratio": "ratio",
    "scheduler.queue_wait_ms_p50": "ms",
    "scheduler.queue_wait_ms_p99": "ms",
    "scheduler.busy_ratio": "ratio",
    "handlers.views_ms_p50": "ms",
    "handlers.run_ms_p50": "ms",
    "order.homogeneity_ms_p50": "ms",
    "graph.generate_ms_p50": "ms",
    "graph.copy_ms_p50": "ms",
    "graph.to_edge_list_ms_p50": "ms",
    "graph.to_ldigraph_ms_p50": "ms",
    "graph.apply_edits_us_p50": "us",
    "refine.types_ms_p50.lift": "ms",
    "refine.types_ms_p50.regular": "ms",
    "refine.fork_ms_p50": "ms",
    "refine.delta_ms_p50": "ms",
    "refine.delta_frontier_ratio": "ratio",
    "interner.ids_per_session.lift": "count",
    "interner.ids_per_session.regular": "count",
    "interner.content_intern_ms_p50": "ms",
    "runtime.inline_contended_ratio": "ratio",
    "runtime.steals_per_chunk": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.layer_share": "ratio",
}


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds lapx_cli and lapx_loadgen."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("repository sources not found in " + ROOT)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "lapx_cli", "lapx_loadgen"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            die("build failed: " + " ".join(cmd))
    return build_dir


def step(cmd):
    """Runs one loadgen mode; returns its JSON line."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=STEP_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        die("timed out: " + " ".join(cmd))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        die("failed (exit %d): %s" % (done.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        die("--seed must be >= 0 and --seconds in [1, 600]")

    build_dir = build()
    loadgen = os.path.join(build_dir, "lapx_loadgen")
    cli = os.path.join(build_dir, "lapx_tools", "lapx_cli")
    run_dir = os.path.join(build_dir, "runs")
    os.makedirs(run_dir, exist_ok=True)
    tag = "%s-%d" % (args.workload, args.seed)
    ref = os.path.join(run_dir, tag + ".ref")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]

    counts = step([loadgen, "describe"] + common)
    base = step([loadgen, "baseline"] + common + ["--transcript", ref])
    # A short relative socket path: sun_path holds 107 bytes.
    sock = step([loadgen, "socket"] + common + [
        "--transcript", ref, "--cli", cli,
        "--socket", os.path.relpath(os.path.join(run_dir, tag + ".sock")),
        "--log", os.path.join(run_dir, tag + ".daemon.log"),
        "--pings", str(PINGS if args.trace else 0)])
    traced = None
    if args.trace:
        traced = step([loadgen, "traced"] + common + [
            "--transcript", ref, "--spans", os.path.join(run_dir, tag + ".spans.jsonl")])
    os.remove(ref)

    attempted = sock["attempted"] + (traced["attempted"] if traced else 0)
    failed = sock["failed"] + (traced["failed"] if traced else 0)
    if args.trace:
        values = {k: v["value"] for k, v in traced["layers"].items()}
        samples = {k: v["n"] for k, v in traced["layers"].items()}
        values["server.hold_ms_p50"] = sock["query_p50_ms"] - base["query_p50_ms"]
        values["server.hold_ms_p99"] = sock["query_p99_ms"] - base["query_p99_ms"]
        samples["server.hold_ms_p50"] = samples["server.hold_ms_p99"] = sock["query_n"]
        values["server.ping_rtt_us_p50"] = sock["ping_rtt_us_p50"]
        samples["server.ping_rtt_us_p50"] = sock["ping_n"]
        values["trace.overhead_ratio"] = (
            traced["timed_latency_sum_ms"] / base["latency_sum_ms"] - 1.0)
        samples["trace.overhead_ratio"] = sock["latency_n"]
        table = PER_LAYER
    else:
        values = {k: sock[k] for k in END_TO_END if k != "setup_s"}
        values["setup_s"] = sock["setup_ms"] / 1000.0
        samples = {k: sock[k[:k.index("_")] + "_n"] for k in
                   ("latency_p50_ms", "query_p50_ms", "write_p50_ms") + TAILS}
        samples["throughput_rps"] = sock["latency_n"]
        samples["setup_s"] = len(sock["setup_reps_ms"])
        samples["daemon_rss_mb"] = 1
        table = END_TO_END
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in table.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "kernel": platform.release()},
        "compiler": sock["compiler"], "build_type": sock["build_type"],
        "daemon": sock["daemon"], "setup_reps_ms": sock["setup_reps_ms"],
        # Scheduling classes (see README, "Scheduling class").
        "sched": {"daemon": sock["daemon_sched"], "client": sock["client_sched"],
                  "baseline": base["sched"],
                  "traced": traced["sched"] if traced else None},
        "requests": counts, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "samples": samples,
        "tails": {k: sock[k] for k in TAILS},
        "in_process": {k: base[k] for k in ("latency_p50_ms", "latency_p99_ms",
                                             "query_p50_ms", "query_p99_ms",
                                             "write_p50_ms", "write_p99_ms")},
    }
    if traced:
        record["self_times"] = traced["self_times"]
        record["setup_self_times"] = traced["setup_self_times"]
    for name, unit in table.items():
        print("  %-34s %14.6g %-6s n=%s" % (name, values[name], unit, samples.get(name)),
              file=sys.stderr)
    print("  %-34s %14.6g %-6s n=%d" % ("error_rate", failed / attempted, "ratio",
                                         attempted), file=sys.stderr)
    for name in TAILS:
        print("  %-34s %14.6g %-6s n=%d (not bounded)" % (
            name, sock[name], "ms", sock[name[:name.index("_")] + "_n"]), file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
