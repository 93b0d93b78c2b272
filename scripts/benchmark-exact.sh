#!/usr/bin/env bash
# benchmark-exact.sh — prints the benchmark's exact metrics, one JSON
# line per workload: every metric on the simulated clock (unit sim_s:
# air_s_per_page, on_air_p50_s, on_air_p99_s) and every share
# (on_air_slo_share, ok_share), with the run's correctness verdict, at
# seed 1 and --seconds 1. These repeat bit for bit on any box at a given
# seed, so check.sh compares them byte for byte against
# results-csv/benchmark_exact.json; wall, CPU and memory metrics are
# left out. A change that moves what a page airs for, when it airs or
# whether it arrives regenerates the golden on purpose (~20 s):
#
#   scripts/benchmark-exact.sh > results-csv/benchmark_exact.json
set -euo pipefail
cd "$(dirname "$0")/.."
for w in page_roundtrip fleet_rotation churn_day sms_storm; do
    bash benchmark/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1 |
        jq -cS --arg w "$w" '{workload: $w, correct, metrics: (.metrics
            | with_entries(select(.value.unit == "sim_s" or .value.unit == "share"))
            | map_values(.value))}'
done
