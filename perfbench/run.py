#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <paper-decode|fleet-prefix|mixed-overload> \
        --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (the repository's library, compiled from
this checkout, plus the benchmark program) in .bench_build/perfbench, then
runs the program with the same arguments. Build output goes to stderr, so
the last line of stdout is the program's result JSON. Exits nonzero, without a
result, when the build or the run fails. See perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def main():
    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD, "perfbench")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
