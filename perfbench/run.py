#!/usr/bin/env python3
"""Build and run the wadc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Configures perfbench/ as its own CMake project in Release (it compiles the
repository's libraries from src/), builds it under .bench_build/perfbench
at the repository root, and runs the perfbench binary with the arguments
given. Build output goes to standard error; the binary's standard output,
whose last line is the JSON result, passes through unchanged. The exit code
is the binary's, or 2 when the build cannot be made.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def jobs():
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(n, 4))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no wadc sources at %s\n"
                         % os.path.join(ROOT, "src"))
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", str(jobs())]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 2
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
