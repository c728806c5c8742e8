#!/usr/bin/env python3
"""Build and run the data-plane benchmark.

    python3 perfbench/run.py --workload fig5_closed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the repository's src/ modules) with CMake
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, then runs adnbench (--trace 0) or adnbench_traced (--trace 1). The
last line of standard output is the benchmark's JSON result. Build output
goes to standard error. Exits non-zero, without a result, when the build or
the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Run a build step, its output to stderr; fail on error or timeout."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed: " + " ".join(cmd))


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", build_dir, "-j", "4"], BUILD_TIMEOUT_S)
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="show that every output check fires")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_dir = build()
    binary = os.path.join(build_dir,
                          "adnbench_traced" if args.trace else "adnbench")
    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    out = done.stdout.decode()
    if done.returncode != 0:
        sys.stderr.write(out)
        fail("exit code %d" % done.returncode)
    if args.selftest:
        sys.stdout.write(out)
        return
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out)
        fail("no result line")
    if set(result) != RESULT_KEYS:
        fail("malformed result line")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
