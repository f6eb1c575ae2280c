#!/usr/bin/env python3
"""Build the library and the perfbench binary, then run one workload.

    python3 perfbench/run.py --workload ycsb_b --seed 1 --seconds 8 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench,
checkpoints and span files to .bench_build/run. Build output goes to
stderr; the binary's last stdout line is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "run")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no library sources next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build()
    cmd = [os.path.join(BUILD, "perfbench"), *sys.argv[1:], "--workdir", WORKDIR]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
