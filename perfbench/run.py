#!/usr/bin/env python3
"""Builds and runs the mdtask end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload psa --seed 42 --seconds 36 --trace 0

Workloads: psa, leaflet_tree, ingest (see perfbench/README.md). The
library and the benchmark are built from source into .bench_build/ in
Release mode; the first run builds, later runs only check the build.
Inputs and trace files are written under .bench_build/ as well. The last
line of standard output is the JSON result.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("psa", "leaflet_tree", "ingest")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(build_dir), "--target", "perfbench",
              "-j", jobs]]
    # Configure once; the build step re-runs CMake when a list changes.
    if not (build_dir / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(root / "perfbench"), "-B",
                         str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    for needed in ("CMakeLists.txt", "src", "include"):
        if not (root / needed).exists():
            fail(f"no mdtask sources to build: {root / needed} is missing")
    build_dir = root / ".bench_build" / "perfbench"
    build(root, build_dir)

    command = [str(build_dir / "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", str(root / ".bench_build" / "work"),
               "--out-dir", str(root / ".bench_build" / "out")]
    done = subprocess.run(command)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
