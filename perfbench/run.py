#!/usr/bin/env python3
r"""Builds and runs the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve_storm --seed 7 \
        --seconds 40 --trace 0

The harness is compiled (with vaolib from ../src) into the build directory
named by CARGO_TARGET_DIR, default .bench_build, relative to the checkout
root. Build output goes to standard error; standard output is the
harness's, whose last line is the JSON result. A traced run also writes its
spans to <build dir>/trace-<workload>-<seed>.tsv. The exit code is the
harness's, or non-zero when the checkout cannot be built.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve_storm", "serve_fanout_churn", "aggregate_wide")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "server", "server.h")):
        fail(f"no vaolib sources under {os.path.join(root, 'src')}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench"])
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(root, build_dir)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.tsv")]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
