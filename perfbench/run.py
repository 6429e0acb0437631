#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

    python3 perfbench/run.py --workload place_cold --seed 1 --seconds 25 --trace 0

Run from the repository root. The first call configures and builds the
benchmark (and the library under src/) in Release mode into
.bench_build/perfbench; later calls only re-check the build. Build output
goes to stderr, so the last stdout line is the benchmark's JSON result.
The exit code is the benchmark's: non-zero when a build step fails or an
output check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_JOBS = "4"


def build():
    """Configures once, then builds; returns False on any failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS]
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
