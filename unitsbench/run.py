#!/usr/bin/env python3
"""Builds and runs the UniTS end-to-end benchmark.

Run from the root of a checkout:

    python3 unitsbench/run.py --workload serve|stream --seed N --seconds S --trace 0|1
    python3 unitsbench/run.py --selftest

The harness (units_bench) is built from the checkout's sources into
.bench_build/ (or $CARGO_TARGET_DIR when set), then run in-process: it fits
the fixture models, serves them on an ephemeral loopback port and prints
every metric with its unit. The last line of standard output is the JSON
result. Build output goes to standard error.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The harness enforces its own 150 s cap; this is the backstop.
HARNESS_CAP_S = 170


def fail(message, code=2):
    print(json.dumps({"error": message}), file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/; run from the root of a UniTS "
             "checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "units_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "units_bench")


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)
    try:
        done = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              timeout=HARNESS_CAP_S)
    except subprocess.TimeoutExpired:
        fail("units_bench exceeded %d s" % HARNESS_CAP_S, 3)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
