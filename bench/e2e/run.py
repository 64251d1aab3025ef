#!/usr/bin/env python3
"""Builds bench_e2e from source if needed, then runs one workload.

Run from the root of a checkout:

    python3 bench/e2e/run.py --workload maze-loopback --seed 1 \
        --seconds 24 --trace 0

The build tree and all results live under .bench_build/ at the root:
the first call configures and builds (a few minutes on 4 cores), later
calls only re-check the build. With --trace 1 the run also writes
trace.json and layers.json under .bench_build/e2e/results/. The last line
of standard output is bench_e2e's JSON result; the exit code is its exit
code, or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")


def build():
    """Configures (once) and builds bench_e2e; build output goes to a log."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                break
        else:
            return True
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-40:]))
    sys.stderr.write("run.py: build failed, full log in %s\n" % log_path)
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--out", default=os.path.join(BUILD_DIR, "results"),
                        help="directory for trace.json / layers.json")
    args = parser.parse_args()
    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out", args.out]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
