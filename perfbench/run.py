#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/bench.exe from
source with dune into .bench_build/ (no dune cache, nothing written
outside the checkout), then runs it with the same arguments and forwards
its output and exit code.  The last stdout line is the result object.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    args = sys.argv[1:]
    for required in ("--workload", "--seed", "--seconds", "--trace"):
        if required not in args:
            fail("missing " + required)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no source tree here: run from the root of a checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", TARGET],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    try:
        run = subprocess.run([exe] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
