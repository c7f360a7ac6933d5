#!/usr/bin/env python3
"""Build and run the end-to-end scheduler benchmark.

Usage (from the repository root):

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds bench/e2e (the scheduler library
from src/ plus the soma_e2e driver, Release) into .bench_build/e2e; later
calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Traces land in
.bench_build/e2e/out. The exit code is the benchmark's: 0 only when
every output check passed.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "bench" / "e2e"
BUILD = ROOT / ".bench_build" / "e2e"


def run_logged(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not (ROOT / "src" / "api" / "scheduler.h").is_file():
        print(f"run.py: no scheduler sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_logged(["cmake", "--build", str(BUILD), "-j", jobs])


def main():
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "soma_e2e")] + sys.argv[1:] + ["--out-dir", str(out_dir)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
