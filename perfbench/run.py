#!/usr/bin/env python3
"""Build the GroupCast benchmark program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_groups --seed 1 --seconds 20 --trace 0

The program is configured from perfbench/CMakeLists.txt (a project of its
own that compiles ../src) into the build directory named by
CARGO_TARGET_DIR, or .bench_build when that is unset, both taken relative
to the repository root.  Build output goes to standard error; the
program's metrics, ending with one JSON line, go to standard output.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("error: the GroupCast sources (src/) are missing; "
                 "run from a full checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("error: building the benchmark failed: " + " ".join(step))
    return os.path.join(out_dir, "groupcast_perfbench")


def main():
    binary = build(build_dir())
    try:
        result = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("error: the benchmark ran past %d s" % RUN_TIMEOUT_S)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
