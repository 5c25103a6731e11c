#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark (see README.md).

Usage, from the repository root:

  python3 perfbench/run.py --workload cold_start|warm_hits|ingest_churn|all \
      --seed N --seconds S --trace 0|1

The first run configures and builds the benchmark from source into
$CARGO_TARGET_DIR (default .bench_build) under the repository root; later
runs rebuild incrementally. The benchmark binary prints one figure per line
and, last, one JSON result line. A traced run also writes its spans to
<build dir>/traces/<workload>-seed<N>.jsonl. Exit status: 0 when every
served answer matched its reference, non-zero otherwise (or when the build
fails, in which case no result line is printed).
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold_start", "warm_hits", "ingest_churn"]
MAX_JOBS = 4
# Wall-clock budget of one invocation, and of one that has to build first.
RUN_BUDGET_S = 175
BUILD_RUN_BUDGET_S = 880


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the benchmark; True on success."""
    log = sys.stderr
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode:
            return False
    jobs = str(min(MAX_JOBS, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", bdir, "--target", "cdi_perfbench",
                   "-j", jobs]
    return subprocess.run(compile_cmd, stdout=log, stderr=log).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    started = time.monotonic()
    bdir = build_dir()
    fresh = not os.path.isfile(os.path.join(bdir, "cdi_perfbench"))
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    deadline = started + (BUILD_RUN_BUDGET_S if fresh else RUN_BUDGET_S)

    status = 0
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        cmd = [os.path.join(bdir, "cdi_perfbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(bdir, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(traces, f"{workload}-seed{args.seed}.jsonl")]
        sys.stdout.flush()
        try:
            # On timeout, subprocess.run kills the benchmark and waits.
            result = subprocess.run(
                cmd, timeout=max(10.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workload} ran past its time budget",
                  file=sys.stderr)
            return 1
        status = status or result.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
