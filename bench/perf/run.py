#!/usr/bin/env python3
"""Builds the fixed benchmark and runs one workload of it.

Usage, from the repository root:

  python3 bench/perf/run.py --workload NAME [--seed N] [--seconds S]
                            [--trace 0|1] [--out FILE]

Configures and builds perf_suite (Release, -O2) from bench/perf and the
repository's src/ under $CARGO_TARGET_DIR/perf (default .bench_build/perf),
then runs it once. Build output goes to stderr, so the last line of stdout
is perf_suite's JSON result. Exits non-zero without a result when the
sources are missing or the build fails, and with perf_suite's status
otherwise (1 when a correctness check failed).
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_TIMEOUT_S = 700  # a first run builds, then runs: under 900 s
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout
    or interrupt, so no compiler or benchmark process outlives this one."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole group has already exited
        proc.wait()
        raise


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "kv", "kvstore.h")):
        sys.exit("run.py: no repository sources under %s/src" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perf")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir])
    for step in steps:
        if run(step, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perf_suite")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    try:
        binary = build()
        cmd = [binary, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds]
        if args.trace:
            cmd.append("--trace")
        if args.out:
            cmd.append("--out=" + os.path.abspath(args.out))
        sys.stdout.flush()
        return run(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.exit("run.py: timed out after %ss: %s" % (e.timeout, e.cmd[0]))


if __name__ == "__main__":
    sys.exit(main())
