#!/usr/bin/env python3
"""Digest gate: the benchmark's virtual behaviour must match the committed
digests.

Run from the repo root after building the benchmark:

  cmake -S bench/perf -B .bench_build/perf
  cmake --build .bench_build/perf -j
  python3 scripts/check_virt_digests.py [--trace]

For every workload BENCHMARK.json declares it runs
`.bench_build/perf/perf_suite --workload=W --seed=SEED --seconds=SECONDS`
(SEED and SECONDS from scripts/virt_digests.json) and compares the printed
`virt_digest` and `content_crc32c` with that file. Both are deterministic
per (workload, seed, seconds): the digest hashes every virtual-time
metric, the crc the store's final contents. A refactor must leave them
unchanged; a change to virtual behaviour on purpose puts the printed
values into the file in the same commit.

--trace then runs each workload at BENCHMARK.json's run_seconds twice,
untraced and with perf_suite's --trace, which adds two host-time checks
(layer self times sum to the total; timing overhead below 2% of the
update phase). Both runs must exit 0 and print the same two values. The
overhead bound is a share of the workload's host time, so it is checked
at the benchmark's own run length: at 1 s alog-gc has not reached segment
GC, its ops cost ~3 us and the overhead reads ~1.8%, over 2% in some
repetitions.

Exits 1 with a report on any mismatch or failed run.
"""
import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "scripts" / "virt_digests.json"
PERF_SUITE = ROOT / ".bench_build" / "perf" / "perf_suite"
FIELDS = ("virt_digest", "content_crc32c")


def run_suite(name, seed, seconds, trace):
    """Runs one workload; returns (exit code, {field: printed value})."""
    cmd = [str(PERF_SUITE), "--workload=" + name, "--seed=%d" % seed,
           "--seconds=%g" % seconds]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    got = {}
    for field in FIELDS:
        m = re.search(r'"%s": "([0-9a-f]+)"' % field, proc.stdout)
        got[field] = m.group(1) if m else None
    return proc.returncode, got


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true",
                        help="also compare traced and untraced runs")
    args = parser.parse_args()
    if not PERF_SUITE.is_file():
        sys.exit("check_virt_digests: %s is not built" % PERF_SUITE)
    spec = json.loads(DIGESTS.read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    errors = []
    for name in workloads:
        code, got = run_suite(name, spec["seed"], spec["seconds"], False)
        if code != 0:
            errors.append("%s: perf_suite exited %d" % (name, code))
            continue
        want = spec["workloads"].get(name, {})
        for field in FIELDS:
            print("%-18s %-15s %s" % (name, field, got[field]))
            if got[field] != want.get(field):
                errors.append("%s: %s %s, committed %s"
                              % (name, field, got[field], want.get(field)))
    for name in workloads if args.trace else []:
        runs = [run_suite(name, spec["seed"], bench["run_seconds"], trace)
                for trace in (False, True)]
        for (code, got), label in zip(runs, ("untraced", "traced")):
            print("%-18s %-8s %gs exit %d %s" % (
                name, label, bench["run_seconds"], code,
                " ".join("%s %s" % kv for kv in got.items())))
            if code != 0:
                errors.append("%s: %s perf_suite exited %d"
                              % (name, label, code))
        if runs[0][1] != runs[1][1]:
            errors.append("%s: traced %s, untraced %s"
                          % (name, runs[1][1], runs[0][1]))
    if errors:
        print("check_virt_digests: FAILED against %s" %
              DIGESTS.relative_to(ROOT), file=sys.stderr)
        for e in errors:
            print("  " + e, file=sys.stderr)
        return 1
    print("check_virt_digests: %d workloads match%s" % (
        len(workloads), ", traced too" if args.trace else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
