#!/usr/bin/env python3
"""Builds the Graphitti end-to-end benchmark from this checkout and runs one
workload.

    python3 perfbench/run.py --workload <browse|annotate|restart> \
        --seed <n> --seconds <s> --trace <0|1>

The library and the benchmark are built with CMake (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, relative to the
checkout root. Build output goes to stderr. A run is PROCESSES benchmark
processes in a row, each setting up the same seeded inputs and measuring
for an equal share of --seconds; every metric is the median over the
processes, so neither one process's memory placement nor one stretch of a
busy host decides it. Stdout carries each process's '#' lines and, as its
last line, one JSON object with the merged metrics. Durable engines live in
a per-process directory under the build root, removed at exit. The traced
run (--trace 1) also writes the spans of process i to
<build root>/perfbench-traces/<workload>-seed<n>-<i>.jsonl.
Exits non-zero when the build fails, a process fails or an output check
fails.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("browse", "annotate", "restart")
PROCESSES = 3
RUN_TIMEOUT_S = 175


def build(build_dir):
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def merge(results):
    """One result from the processes': checks and counts add up, each
    metric is the median of the processes' values."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # benchmark process before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for i in range(PROCESSES):
        data_dir = os.path.join(build_root, f"perfbench-data-{os.getpid()}-{i}")
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / PROCESSES), "--trace", str(args.trace),
               "--data-dir", data_dir]
        if args.trace:
            trace_dir = os.path.join(build_root, "perfbench-traces")
            os.makedirs(trace_dir, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}-seed{args.seed}-{i}.jsonl")]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 3
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"# [process {i}] {line.lstrip('# ')}")
        try:
            results.append(json.loads(lines[-1]))
        except (IndexError, ValueError):
            print(f"perfbench: process {i} exited {proc.returncode} without a result",
                  file=sys.stderr)
            return proc.returncode or 4
    result = merge(results)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
