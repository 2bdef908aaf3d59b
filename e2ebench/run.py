#!/usr/bin/env python3
"""End-to-end benchmark of the IoTSec deployment.

Usage (from the root of a checkout):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (library from src/ plus the program in e2ebench/) into
.bench_build/ on first use, then:

  --trace 0  repeats untraced runs of the workload for --seconds (at least
             two), each in a fresh process, and reports the end-to-end
             metrics: medians of the wall-clock ones, and the sim-time ones,
             which must be identical across runs of one seed.
  --trace 1  alternates untraced and traced runs (span sampling on) for
             --seconds and reports the per-layer metrics: medians over the
             traced runs, tracing overhead against the untraced ones.

Every run's outcomes are judged by the workload's oracle, and two runs of
one seed must agree on the outcome digest and every sim-time metric; a
mismatch fails the benchmark with no numbers. The last stdout line is the
result object; the line before it holds the run's provenance.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
WORKLOADS = ("guarded_mix", "direct_small", "posture_churn")
RUN_TIMEOUT_S = 120
# Results of one seed that are functions of the simulation alone.
DETERMINISTIC = ("digest", "attempted", "failed", "exchanges", "transitions",
                 "rtt_samples", "rtt_p50_us", "rtt_p99_us", "react_samples",
                 "react_p50_us", "react_p99_us")


def die(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources (src/) not found next to e2ebench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
                  "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            die("build failed: " + " ".join(step))


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(workload, seed, traced):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run timed out after {RUN_TIMEOUT_S}s: {' '.join(cmd)}")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        die(f"run failed with exit code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_deterministic(runs, seed):
    first = runs[0]
    for other in runs[1:]:
        for key in DETERMINISTIC:
            if other[key] != first[key]:
                die(f"nondeterministic: {key} differs between two runs of "
                    f"seed {seed}: {first[key]!r} vs {other[key]!r}")


def end_to_end(runs):
    """Medians of the wall-clock results (robust to the host's bursts of
    contention); sim-time results are equal across runs of one seed."""
    return {
        "setup_s": statistics.median(
            s for run in runs for s in run["setup_s"]),
        "exchanges_per_s": statistics.median(
            run["exchanges_per_s"] for run in runs),
        "rtt_p50_us": runs[0]["rtt_p50_us"],
        "rtt_p99_us": runs[0]["rtt_p99_us"],
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }


def per_layer(runs):
    """Medians over the traced runs; control-loop and outcome figures come
    from the untraced runs they alternate with."""
    untraced = [run for run in runs if not run["traced"]]
    traced = [run for run in runs if run["traced"]]
    values = {name: statistics.median(run["layers"][name] for run in traced)
              for name in traced[0]["layers"]}
    values["obs.trace_overhead"] = (
        statistics.median(run["exchanges_per_s"] for run in untraced) /
        statistics.median(run["exchanges_per_s"] for run in traced) - 1)
    for key in ("transitions_per_s", "react_p50_us", "react_p99_us"):
        values[key] = statistics.median(run[key] for run in untraced)
    values["fail_ratio"] = (sum(run["failed"] for run in runs) /
                            sum(run["attempted"] for run in runs))
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    build()

    # At least two runs, so every result is checked against a rerun of its
    # seed; traced runs alternate with untraced ones.
    runs = []
    start = time.monotonic()
    while (len(runs) < 2 or len(runs) % 2 == 1 and args.trace
           or time.monotonic() - start < args.seconds):
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(run_once(args.workload, args.seed, traced))
    check_deterministic(runs, args.seed)
    if args.trace:
        values = per_layer(runs)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(runs)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        die("metrics not measured: " + ", ".join(missing))

    errors = sorted({e for run in runs for e in run["errors"]})
    print(json.dumps({"provenance": {
        "workload": args.workload, "seed": args.seed,
        "traced": bool(args.trace), "git_sha": git_sha(),
        "build_type": runs[0]["build_type"], "compiler": runs[0]["compiler"],
        "nproc": os.cpu_count(), "runs": len(runs),
        "digest": runs[0]["digest"], "rtt_samples": runs[0]["rtt_samples"],
        "react_samples": runs[0]["react_samples"], "errors": errors[:8]}}))
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
