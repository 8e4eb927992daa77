#!/usr/bin/env python3
"""Builds the geobench binary from this checkout's sources and runs it.

Usage (from the repository root):
  python3 geobench/run.py --workload geo-rw --seed 1 --seconds 20 --trace 0
  python3 geobench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/geobench (default .bench_build/geobench)
and its output to stderr, so the last line of stdout is the benchmark's JSON
result. Every other argument is passed to the binary unchanged.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "geobench")


def build(bdir):
    """Configures and builds incrementally; returns the exit code."""
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs],
    ]
    with open(os.path.join(bdir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            code = subprocess.run(step, stdout=sys.stderr).returncode
            if code != 0:
                return code
    return 0


def main():
    bdir = build_dir()
    code = build(bdir)
    if code != 0:
        print("geobench: build failed", file=sys.stderr)
        return code
    binary = os.path.join(bdir, "geobench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
