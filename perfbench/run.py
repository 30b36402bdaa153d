#!/usr/bin/env python3
"""End-to-end pipeline benchmark: builds it from source, runs one workload.

Relays the result of the `pipeline` program it builds.

    python3 perfbench/run.py --workload batch_product --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/perfbench under the repository root
(configured and built incrementally on every run; the first run compiles
the library). result.json, and for --trace 1 the Chrome trace trace.json,
go to .bench_build/results/<workload>-seed<n>-trace<t>/. The last line of
standard output is the result JSON; the exit code is the program's (0 when
every output check passed).
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("batch_product", "batch_obliv", "stream_serve")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850


def run_timeout_s(seconds):
    """Room for a run of --seconds: set-ups, warm-up and the last pass."""
    return 2 * seconds + 90

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures and builds the program; returns its path or None."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "pipeline", "-j", jobs],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                               check=True,
                               timeout=max(1.0, deadline - time.monotonic()))
            except (subprocess.SubprocessError, OSError) as e:
                log.flush()
                with open(log_path) as f:
                    tail = f.readlines()[-20:]
                sys.stderr.write("perfbench: build failed (%s); log %s:\n%s"
                                 % (e, log_path, "".join(tail)))
                return None
    return os.path.join(BUILD_DIR, "pipeline")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 1
    out_dir = os.path.join(ROOT, ".bench_build", "results", "%s-seed%d-trace%s"
                           % (args.workload, args.seed, args.trace))
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir]
    timeout = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %g s\n" % timeout)
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        well_formed = isinstance(result, dict) and set(result) == RESULT_KEYS
    except (IndexError, ValueError):
        well_formed = False
    if not well_formed:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: the program printed no result line "
                         "(exit %d)\n" % proc.returncode)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
