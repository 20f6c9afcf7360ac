#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark binary from this checkout and
runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the program's libraries from src/) into
.bench_build/perfbench, prepares the workload's inputs in .bench_build/work,
runs the measured process and prints its result JSON as the last line of
stdout. Build and check output goes to stderr. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("sweep-cold", "sweep-tier1", "serve-skewed")
BUILD_TIMEOUT_S = 840
PREPARE_TIMEOUT_S = 120
# A run times whole rounds until --seconds have passed, so its last round
# (one tier-1 round is ~10 s, twice that traced) and the checks and layer
# phase that follow come on top of --seconds.
RUN_MARGIN_S = 120


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = run(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                         build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                        BUILD_TIMEOUT_S, stdout=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    built = run(["cmake", "--build", build_dir, "--target", "perfbench", "-j",
                 jobs], BUILD_TIMEOUT_S, stdout=sys.stderr)
    if built.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    work_dir = os.path.join(root, ".bench_build", "work")
    binary = build(root, build_dir)
    os.makedirs(work_dir, exist_ok=True)

    common = ["--workload=" + args.workload, "--seed=%d" % args.seed,
              "--seconds=%g" % args.seconds, "--trace=" + args.trace,
              "--work-dir=" + work_dir]
    prepared = run([binary, "--prepare"] + common, PREPARE_TIMEOUT_S,
                   stdout=sys.stderr)
    if prepared.returncode != 0:
        fail("input preparation failed")
    measured = run([binary] + common, 2 * args.seconds + RUN_MARGIN_S,
                   stdout=subprocess.PIPE, text=True)
    lines = measured.stdout.strip().splitlines()
    if measured.returncode != 0 or not lines:
        fail("benchmark exited with %d" % measured.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
