#!/usr/bin/env python3
"""Summarizes one set of benchmark runs, or compares two sets.

Usage, from the repository root:

  python3 bench/perf/compare.py SET          # one set: medians, quartiles
  python3 bench/perf/compare.py BASE NEW     # verdict per workload x metric

A set is a directory written by bench/perf/run.sh: SET/<workload>/*.json,
one perf_suite --out file per run. For each workload and metric the summary
prints the median, the quartiles (statistics.quantiles, n=4) and the spread
(interquartile range / median). One set: also checks that every run passed
its checks and that runs at one seed agree on virt_digest. Two sets: each
end-to-end metric of BENCHMARK.json gets a verdict against its bound:

  worse       NEW's median is worse than BASE's by more than the bound
  unresolved  a set's spread exceeds the bound, and NOT every NEW run reads
              better than every BASE run
  better      NEW's median is better by more than BASE's spread, and NEW
              wins at least 9 of 10 run pairs (runs paired in order)
  within      otherwise

Per-layer metrics are printed with their delta and no verdict. Exits 1 on
any `worse`, on a rise in the failed-op fraction, on a failed check, or on
differing virt_digests at one seed.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")


def load_set(path):
    """Returns {workload: [run, ...]} with runs in file-name order."""
    runs = {}
    for workload in sorted(os.listdir(path)):
        wdir = os.path.join(path, workload)
        if not os.path.isdir(wdir):
            continue
        for name in sorted(os.listdir(wdir)):
            if name.endswith(".json"):
                with open(os.path.join(wdir, name)) as f:
                    runs.setdefault(workload, []).append(json.load(f))
    if not runs:
        sys.exit("compare.py: no runs under " + path)
    return runs


def stats(values):
    """(median, q1, q3, spread) of a list of numbers."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r["metrics"]]


def fail_frac(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def check_set(label, sets):
    """Prints failed checks and digest mismatches; returns True if clean."""
    ok = True
    for workload, runs in sorted(sets.items()):
        for r in runs:
            if not r["correct"]:
                failed = [k for k, v in r["checks"].items() if not v]
                print("%s %s seed %s: FAILED %s" % (
                    label, workload, r["seed"], ", ".join(failed)))
                ok = False
        by_seed = {}
        for r in runs:
            key = (r["seed"], r["seconds"])
            by_seed.setdefault(key, set()).add(r["virt_digest"])
        for (seed, _), digests in sorted(by_seed.items()):
            if len(digests) > 1:
                print("%s %s seed %s: virt_digest differs across runs: %s" % (
                    label, workload, seed, " ".join(sorted(digests))))
                ok = False
    return ok


def summarize(sets):
    for workload, runs in sorted(sets.items()):
        print("== %s (%d runs, failed-op fraction %.3g)" % (
            workload, len(runs), fail_frac(runs)))
        print("  %-36s %14s %14s %14s %8s  unit" % (
            "metric", "median", "q1", "q3", "spread"))
        for metric, m in runs[0]["metrics"].items():
            med, q1, q3, spread = stats(values(runs, metric))
            print("  %-36s %14.6g %14.6g %14.6g %7.2f%%  %s" % (
                metric, med, q1, q3, 100 * spread, m["unit"]))


def verdict(base, new, spec):
    bmed, _, _, bspread = stats(base)
    nmed, _, _, nspread = stats(new)
    sign = 1 if spec["better"] == "lower" else -1
    # Positive = NEW is worse, as a share of BASE's median.
    worse_by = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    bound = spec["bound"]
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if max(bspread, nspread) > bound:
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if -worse_by > bspread and wins >= 0.9 * len(pairs):
        return "better"
    return "within"


def compare(base_sets, new_sets):
    with open(BENCHMARK_JSON) as f:
        specs = {m["name"]: m for m in json.load(f)["end_to_end"]}
    ok = True
    for workload in sorted(set(base_sets) | set(new_sets)):
        base = base_sets.get(workload, [])
        new = new_sets.get(workload, [])
        if not base or not new:
            print("== %s: only in one set" % workload)
            continue
        bf, nf = fail_frac(base), fail_frac(new)
        print("== %s (%d vs %d runs, failed-op fraction %.3g -> %.3g)" % (
            workload, len(base), len(new), bf, nf))
        if nf > bf:
            ok = False
        print("  %-36s %12s %12s %12s %12s %8s %6s  %s" % (
            "metric", "base med", "base q1-q3", "new med", "new q1-q3",
            "delta", "bound", "verdict"))
        for metric, m in new[0]["metrics"].items():
            b, n = values(base, metric), values(new, metric)
            if not b or not n:
                continue
            bmed, bq1, bq3, _ = stats(b)
            nmed, nq1, nq3, _ = stats(n)
            delta = (nmed - bmed) / abs(bmed) if bmed else 0.0
            spec = specs.get(metric)
            word, bound = "-", ""
            if spec:
                word = verdict(b, n, spec)
                bound = "%.0f%%" % (100 * spec["bound"])
                ok = ok and word != "worse"
            print("  %-36s %12.6g %12s %12.6g %12s %+7.2f%% %6s  %s%s" % (
                metric, bmed, "%.4g-%.4g" % (bq1, bq3), nmed,
                "%.4g-%.4g" % (nq1, nq3), 100 * delta, bound, word,
                "" if spec else "  (" + m["unit"] + ")"))
    return ok


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    sets = [load_set(p) for p in argv[1:]]
    ok = all([check_set(os.path.basename(os.path.normpath(p)), s)
              for p, s in zip(argv[1:], sets)])
    if len(sets) == 1:
        summarize(sets[0])
    else:
        ok = compare(*sets) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
