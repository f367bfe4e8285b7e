#!/usr/bin/env python3
"""Build the simulator in Release and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The build tree and the Chrome traces of --trace 1 runs go to
.bench_build/ at the root of the checkout. Build output goes to stderr;
the last line of stdout is the benchmark's JSON result. Any build or
run failure exits nonzero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# A run may take three minutes; the first one also builds.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; returns success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    args = sys.argv[1:]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args == ["--self-test"]:
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_checks")],
                              stdout=sys.stderr).returncode

    # The program writes its traces relative to the checkout's root.
    cmd = [os.path.join(BUILD_DIR, "perfbench")] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("perfbench: exit code %d" % proc.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
