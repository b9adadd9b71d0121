#!/usr/bin/env python3
"""Build and run bench_e2e, the paper-corpus end-to-end benchmark.

    python3 bench_e2e/run.py --workload el-wide --seed 1 --seconds 10 --trace 0
    python3 bench_e2e/run.py --selftest

Run from the repository root. The first run configures and builds the
benchmark package (bench_e2e/CMakeLists.txt, which compiles the library
from src/) into .bench_build/; later runs rebuild incrementally. Build
output goes to stderr, so the last line on stdout is the run's JSON
result. When the build fails the script exits non-zero and prints no
result. Traced runs write their spans to .bench_build/traces/.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "bench_e2e")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def run(cmd):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"bench_e2e: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's self-tests instead")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        print("bench_e2e: build failed", file=sys.stderr)
        return 2
    if args.selftest:
        cmd = [os.path.join(BUILD, "bench_e2e_selftest")]
    else:
        cmd = [os.path.join(BUILD, "bench_e2e"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json")]
    code = run(cmd)
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
