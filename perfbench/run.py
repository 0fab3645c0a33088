#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json and README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ with CMake (it compiles the
library from src/) into .bench_build/perfbench, runs one workload, and passes
the benchmark's output through: the last line of stdout is the JSON result.
A traced run also writes its spans to .bench_build/traces/<workload>.csv.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "hlsh_perfbench")
# A run must end within 180 s; leave room for the (incremental) build.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    compile_ = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "hlsh_perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, stderr=sys.stderr)
    return compile_.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["probe_batch", "mixed_single", "churn_mix"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(TRACE_DIR, args.workload + ".csv")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the benchmark and waited for it.
        print("benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print("benchmark exited with %d" % run.returncode, file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(run.stdout)
        print("benchmark printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
