#!/usr/bin/env python3
"""Builds and runs the private-statistics query benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload stats-1server --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the spfe libraries from
src/ plus the benchmark) into $CARGO_TARGET_DIR, default .bench_build; later
calls rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's result object. SPFE_THREADS is pinned to 1 and
recorded in the context line: on a 4-core host shared with other tenants,
one stats-1server query took 0.7 to 1.6 s at 4 threads, depending on how
many cores the neighbours left free, against a 5% spread at 1 thread.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout, **kwargs):
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")


def build(build_dir, targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/ not found next to perfbench/; run from a full checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if run_checked(configure, BUILD_TIMEOUT_S, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", *targets]
    if run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at tiny sizes and check the output")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    target = "perfbench_selftest" if args.selftest else "perfbench_query"
    build(build_dir, [target])

    env = dict(os.environ)
    env["SPFE_THREADS"] = "1"
    env.pop("SPFE_TRACE", None)  # the traced run reads spans in-process
    binary = os.path.join(build_dir, target)
    if args.selftest:
        cmd = [binary, os.path.join(ROOT, "BENCHMARK.json")]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    result = run_checked(cmd, RUN_TIMEOUT_S, env=env, cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
