#!/usr/bin/env bash
# Configures and builds bench_e2e, then runs every workload of
# BENCHMARK.json into one results directory:
#
#   bench/e2e/run_all.sh [--smoke] [--out DIR]
#
# Per workload it makes 5 end-to-end runs (seeds 1..5) of BENCHMARK.json's
# run_seconds and one --trace 1 run (seed 1), and writes
#   DIR/<workload>-seed<N>.e2e.json     result line of an end-to-end run
#   DIR/<workload>-seed1.layers.json    result line of the traced run
#   DIR/<workload>-seed1/trace.json     its Chrome trace (+ layers.json)
#   DIR/<workload>-seed1.self_time.txt  self time per layer (self_time.py)
# DIR defaults to .bench_build/e2e/results/<timestamp>. Two such
# directories are what compare.py takes. --smoke is a quick check that
# everything works: the same code path, one end-to-end and one traced run
# of 1.5 s per workload.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
runs=5
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out=".bench_build/e2e/results/$(date +%Y%m%d-%H%M%S)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) runs=1; seconds=1.5; shift ;;
    --out) out="$2"; shift 2 ;;
    *) echo "usage: $0 [--smoke] [--out DIR]" >&2
       exit 2 ;;
  esac
done
mkdir -p "$out"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

# One run: the result line goes to $out, the rest of stdout to the terminal.
run() {
  local workload=$1 seed=$2 trace=$3 file=$4 log
  if ! log=$(python3 bench/e2e/run.py --workload "$workload" --seed "$seed" \
             --seconds "$seconds" --trace "$trace" --out "$out"); then
    printf '%s\n' "$log"
    echo "run_all.sh: $workload seed $seed (trace $trace) failed" >&2
    exit 1
  fi
  printf '%s\n' "$log" | sed '$d'
  printf '%s\n' "$log" | tail -n 1 > "$file"
}

for workload in $workloads; do
  for seed in $(seq 1 "$runs"); do
    run "$workload" "$seed" 0 "$out/$workload-seed$seed.e2e.json"
  done
  run "$workload" 1 1 "$out/$workload-seed1.layers.json"
  python3 bench/e2e/self_time.py "$out/$workload-seed1/trace.json" \
    > "$out/$workload-seed1.self_time.txt"
done
echo "results in $out"
