#!/usr/bin/env python3
"""Writes one benchmark set's summary as a JSON file.

Usage, from the repository root:

  bench/perf/run.sh SET 5            # five rounds of every workload
  python3 scripts/bench_json.py SET OUT

SET is a directory written by bench/perf/run.sh. OUT gets, per workload,
the run count, seeds, whether every run passed its checks, the failed-op
fraction, the distinct virt_digests, and per metric its unit, median,
quartiles and spread (interquartile range / median) — the numbers
`bench/perf/compare.py SET` prints, computed by that file's own
load_set/stats so the two cannot drift apart. Exits 1 if any run failed
a check.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no __pycache__ in bench/perf
sys.path.insert(0, os.path.join(ROOT, "bench", "perf"))
import compare  # noqa: E402


def summarize(runs):
    metrics = {}
    for name, m in runs[0]["metrics"].items():
        med, q1, q3, spread = compare.stats(compare.values(runs, name))
        metrics[name] = {"unit": m["unit"], "median": med, "q1": q1,
                         "q3": q3, "spread": spread}
    return {
        "runs": len(runs),
        "seeds": sorted({r["seed"] for r in runs}),
        "seconds": sorted({r["seconds"] for r in runs}),
        "correct": all(r["correct"] for r in runs),
        "failed_op_frac": compare.fail_frac(runs),
        "virt_digests": sorted({r["virt_digest"] for r in runs}),
        "metrics": metrics,
    }


def dumps(out):
    """Indented JSON with one line per metric."""
    def one(key, value, indent):
        return "%s%s: %s" % (" " * indent, json.dumps(key),
                             json.dumps(value, sort_keys=True))

    blocks = []
    for w, s in out.items():
        head = [one(k, v, 4) for k, v in sorted(s.items()) if k != "metrics"]
        metrics = [one(k, v, 6) for k, v in sorted(s["metrics"].items())]
        blocks.append('  %s: {\n%s,\n    "metrics": {\n%s\n    }\n  }' % (
            json.dumps(w), ",\n".join(head), ",\n".join(metrics)))
    return "{\n%s\n}\n" % ",\n".join(blocks)


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    sets = compare.load_set(argv[1])
    out = {w: summarize(runs) for w, runs in sorted(sets.items())}
    with open(argv[2], "w") as f:
        f.write(dumps(out))
    return 0 if all(w["correct"] for w in out.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
