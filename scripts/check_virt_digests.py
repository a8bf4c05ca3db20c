#!/usr/bin/env python3
"""Digest gate: the benchmark's virtual behaviour must match the committed
digests.

Run from the repo root after building the benchmark:

  cmake -S bench/perf -B .bench_build/perf
  cmake --build .bench_build/perf -j
  python3 scripts/check_virt_digests.py

For every workload BENCHMARK.json declares it runs
`.bench_build/perf/perf_suite --workload=W --seed=SEED --seconds=SECONDS`
(SEED and SECONDS from scripts/virt_digests.json) and compares the printed
`virt_digest` and `content_crc32c` with that file. Both are deterministic
per (workload, seed, seconds): the digest hashes every virtual-time
metric, the crc the store's final contents. A refactor must leave them
unchanged; a change to virtual behaviour on purpose puts the printed
values into the file in the same commit. Exits 1 with a report on any
mismatch or failed run.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "scripts" / "virt_digests.json"
PERF_SUITE = ROOT / ".bench_build" / "perf" / "perf_suite"
FIELDS = ("virt_digest", "content_crc32c")


def main():
    if not PERF_SUITE.is_file():
        sys.exit("check_virt_digests: %s is not built" % PERF_SUITE)
    spec = json.loads(DIGESTS.read_text())
    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    errors = []
    for name in workloads:
        proc = subprocess.run(
            [str(PERF_SUITE), "--workload=" + name, "--seed=%d" % spec["seed"],
             "--seconds=%g" % spec["seconds"]],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            errors.append("%s: perf_suite exited %d" % (name, proc.returncode))
            continue
        want = spec["workloads"].get(name, {})
        for field in FIELDS:
            m = re.search(r'"%s": "([0-9a-f]+)"' % field, proc.stdout)
            got = m.group(1) if m else None
            print("%-18s %-15s %s" % (name, field, got))
            if got != want.get(field):
                errors.append("%s: %s %s, committed %s"
                              % (name, field, got, want.get(field)))
    if errors:
        print("check_virt_digests: FAILED against %s" %
              DIGESTS.relative_to(ROOT), file=sys.stderr)
        for e in errors:
            print("  " + e, file=sys.stderr)
        return 1
    print("check_virt_digests: %d workloads match" % len(workloads))
    return 0


if __name__ == "__main__":
    sys.exit(main())
