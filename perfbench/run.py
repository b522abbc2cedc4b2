#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload als-ml|ingest-ml \
        --seed N --seconds S --trace 0|1 [--size full|smoke]

Run from the repository root. The first run configures and builds the
library and the perfbench driver in .bench_build/ (Release); later runs
only rebuild what changed. The last stdout line is the driver's JSON
result; build output and progress go to stderr. The exit code is the
driver's: 0 when every correctness check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("als-ml", "ingest-ml")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    bench_dir = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(root, "src", "core", "ptucker.h"))):
        fail("no P-Tucker sources in " + root + "; nothing to benchmark")
    cmake_dir = os.path.join(build_dir, "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j4", "--target", "perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step failed: %s" % error)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(cmake_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    binary = build(root, build_dir)

    work_dir = os.path.join(build_dir, "work", "%s-%d" % (args.workload, os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--size", args.size, "--work-dir", work_dir]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, cwd=root)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
