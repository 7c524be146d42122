#!/usr/bin/env python3
"""Builds and runs the end-to-end SSF benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload travel-hmread --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seconds 30   # the three workloads in turn

The first call configures and builds e2ebench/ (the repository's libraries plus the
benchmark binary) into .bench_build/e2ebench; later calls rebuild only what changed. All other
arguments go to the binary unchanged. The binary prints its result as the last stdout line and
exits non-zero when an output check fails; this script exits non-zero, without a result line,
when the build fails or the program sources are missing.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
WORKLOADS = ["travel-hmread", "movie-hmwrite-durable", "retwis-ramp"]


def fail(message):
    print("e2ebench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step; its output goes to stderr only if it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the program sources (src/) are not in this checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench", "-j", jobs])


def main():
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        i = args.index("--workload") + 1
        if args[i] == "all":
            runs = [args[:i] + [w] + args[i + 1:] for w in WORKLOADS]
    code = 0
    for run_args in runs:
        sys.stdout.flush()
        proc = subprocess.run([BINARY] + run_args + ["--out-dir", OUT_DIR], cwd=ROOT)
        code = code or proc.returncode
    sys.exit(code)


if __name__ == "__main__":
    main()
