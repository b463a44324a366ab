#!/usr/bin/env python3
"""Builds bench_e2e in Release and runs it on one workload.

Run from anywhere inside a checkout:

    python3 bench/e2e/run.py --workload sample-bound --seed 1 --seconds 20 --trace 0

The build tree is .bench_build/ at the repository root; the first call
configures and builds it, later calls only check that it is up to date.
Build output goes to stderr, so the last line of stdout is the binary's
JSON result. Every argument is passed to bench_e2e unchanged; the exit code
is bench_e2e's (or the build's, when the build fails).
"""

import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build"


def build():
    env = dict(os.environ)
    env.setdefault("CMAKE_BUILD_PARALLEL_LEVEL", str(min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        rc = subprocess.run(cmd, stdout=sys.stderr, env=env).returncode
        if rc != 0:
            return rc
    return subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "bench_e2e"],
        stdout=sys.stderr, env=env).returncode


def main():
    rc = build()
    if rc != 0:
        print(f"run.py: building bench_e2e failed (exit {rc})", file=sys.stderr)
        return rc
    return subprocess.run([str(BUILD / "bench_e2e")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
