#!/usr/bin/env python3
"""Builds the engine benchmark from source and runs one workload.

    python3 enginebench/run.py --workload large_mix --seed 1 --seconds 20 --trace 0
    python3 enginebench/run.py --self-test

The build goes to .bench_build/enginebench under the repository root and
the result files to .bench_build/results. Build output goes to stderr; the
last line of stdout is the benchmark's JSON result. Without the engine
sources next to this directory the script fails before running anything.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "enginebench"
RESULTS = ROOT / ".bench_build" / "results"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"enginebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (ROOT / "src" / "workload" / "engine.h").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs],
    ]
    if (BUILD / "CMakeCache.txt").is_file():
        steps = steps[1:]  # the build re-runs configure when it must
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run(command, timeout):
    """Runs command in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {timeout} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        build("enginebench_tests")
        sys.exit(run([str(BUILD / "enginebench_tests")], RUN_TIMEOUT_S))
    if not args.workload:
        parser.error("--workload is required")
    build("enginebench")
    RESULTS.mkdir(parents=True, exist_ok=True)
    sys.stdout.flush()
    sys.exit(run([str(BUILD / "enginebench"), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--out", str(RESULTS)],
                 RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
