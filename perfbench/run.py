#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. The build lands in .bench_build/perfbench
(CMake, Release). Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Exits non-zero without a result when the
build fails or --seconds is below 24 (too short for a p99 from 1000
samples), and non-zero with a result when a check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")


def build():
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "gsn_perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD, "gsn_perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
