#!/usr/bin/env bash
# Runs one set of the fixed benchmark and summarizes it.
#
#   bench/perf/run.sh OUT [ROUNDS=5] [SEED=42] [SEED_STEP=0] [TRACE=0]
#
# Builds perf_suite (through run.py), then runs ROUNDS rounds; each round
# runs every workload of BENCHMARK.json once, so the workloads interleave
# round-robin and host-time drift spreads evenly over them. Round r uses
# seed SEED + r * SEED_STEP (step 0 repeats one seed, which makes every
# virtual metric repeat exactly). Each run's full result lands in
# OUT/<workload>/r<round>-s<seed>.json and its printed output in the
# matching .txt. Ends with compare.py's summary of the set: every metric
# by name with its unit. Exits non-zero if any run fails or any check
# fails. Run from the repository root.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  sed -n '2,15p' "$0"
  exit 2
fi
out=$1
rounds=${2:-5}
seed=${3:-42}
step=${4:-0}
trace=${5:-0}
here=$(dirname "$0")

workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$here/../../BENCHMARK.json")

status=0
for ((r = 0; r < rounds; r++)); do
  s=$((seed + r * step))
  for w in $workloads; do
    mkdir -p "$out/$w"
    base=$(printf '%s/%s/r%02d-s%d' "$out" "$w" "$r" "$s")
    if python3 "$here/run.py" --workload "$w" --seed "$s" --trace "$trace" \
        --out "$base.json" > "$base.txt" 2>&1; then
      echo "round $r  $w  seed $s  ok"
    else
      echo "round $r  $w  seed $s  FAILED (see $base.txt)"
      status=1
    fi
  done
done
python3 "$here/compare.py" "$out" || status=1
exit $status
