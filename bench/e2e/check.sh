#!/usr/bin/env bash
# Checks for the end-to-end benchmark (bench/e2e/README.md). Run from anywhere
# inside a checkout; the first call builds the benchmark.
#
#   bench/e2e/check.sh --smoke
#       Every workload through both binaries with a tiny lab, tiny traffic and
#       tiny windows: every correctness gate runs, and every metric named in
#       BENCHMARK.json must be printed with its unit, next to hardware_threads
#       (run.py refuses a run that misses one). About 30 s once built.
#
#   bench/e2e/check.sh --sets N [--seeds "1 2 ..."] [--seconds S]
#       N sets of timed runs (--trace 0), one run per workload and seed, the
#       workload order reversed on every other set. Prints, per end-to-end
#       metric and workload, each set's median and IQR/median, and whether the
#       sets agree: IQR within the metric's bound and no set's median worse
#       than the first set's by more than the bound. Raw results go to
#       .bench_build/sets-<time>.jsonl.
set -euo pipefail
cd "$(dirname "$0")/../.."

run() { python3 bench/e2e/run.py "$@"; }
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

usage() {
  echo "usage: $0 --smoke | --sets N [--seeds \"1 2 ...\"] [--seconds S]" >&2
  exit 2
}

case "${1:-}" in
  --smoke)
    start=$SECONDS
    for w in $workloads; do
      for t in 0 1; do
        if ! out=$(run --workload "$w" --seed 1 --seconds 1 --trace "$t" --smoke 2>/dev/null); then
          echo "smoke FAILED: $w --trace $t did not produce a result" >&2
          exit 1
        fi
        if ! python3 -c 'import json,sys; sys.exit(0 if json.loads(sys.argv[1])["correct"] else 1)' \
            "$(tail -n1 <<<"$out")"; then
          echo "smoke FAILED: $w --trace $t failed a correctness gate" >&2
          exit 1
        fi
        echo "smoke ok: $w --trace $t"
      done
    done
    echo "smoke passed in $((SECONDS - start)) s"
    ;;
  --sets)
    [[ $# -ge 2 ]] || usage
    sets=$2
    shift 2
    seeds="1 2 3 4 5 6 7 8 9 10"
    seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
    while [[ $# -gt 0 ]]; do
      case "$1" in
        --seeds) seeds=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        *) usage ;;
      esac
    done
    mkdir -p .bench_build
    results=.bench_build/sets-$(date +%Y%m%d-%H%M%S).jsonl
    order=$workloads
    for ((set = 1; set <= sets; set++)); do
      for w in $order; do
        for s in $seeds; do
          line=$(run --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 2>/dev/null | tail -n1)
          echo "{\"set\": $set, \"workload\": \"$w\", \"seed\": $s, \"result\": $line}" >>"$results"
          echo "set $set $w seed $s done" >&2
        done
      done
      order=$(tr ' ' '\n' <<<"$order" | tac | tr '\n' ' ')
    done
    python3 - "$results" <<'PY'
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
rows = [json.loads(l) for l in open(sys.argv[1])]
sets = sorted({r["set"] for r in rows})
bad = [r for r in rows if not r["result"]["correct"]]
print(f"results: {sys.argv[1]} ({len(rows)} runs, {len(bad)} with a failed gate)")
ok_all = not bad
for m in spec["end_to_end"]:
    name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
    print(f"\n{name} ({m['unit']}, {m['better']} is better, bound {bound})")
    for w in [w["name"] for w in spec["workloads"]]:
        cells, meds = [], []
        spread_ok = True
        for s in sets:
            v = [r["result"]["metrics"][name]["value"] for r in rows
                 if r["set"] == s and r["workload"] == w]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) >= 2 else [med, med, med]
            iqr = (q[2] - q[0]) / med if med else 0.0
            # setup_s's spread is reported, not gated; only its medians are.
            spread_ok = spread_ok and (name == "setup_s" or iqr <= bound)
            meds.append(med)
            cells.append(f"set{s} median {med:.6g} IQR {100 * iqr:.2f}%")
        worse = [(md - meds[0]) / meds[0] if lower else (meds[0] - md) / meds[0]
                 for md in meds[1:]] if meds[0] else []
        agree = spread_ok and all(x <= bound for x in worse)
        ok_all = ok_all and agree
        drift = " ".join(f"{100 * x:+.2f}%" for x in worse)
        print(f"  {w:14s} " + " | ".join(cells) +
              (f" | worse by {drift}" if drift else "") + f"  -> {'agree' if agree else 'DISAGREE'}")
print("\nall sets agree within bounds" if ok_all else "\nsets DISAGREE (see above)")
sys.exit(0 if ok_all else 1)
PY
    ;;
  *) usage ;;
esac
