#!/usr/bin/env bash
# Regenerates the checked-in figure and ablation artifacts and byte-compares
# them with the copies at the repository root.
#
# Runs fig4a, fig4b, fig5, fig6, fig7 and the four ablations from a built
# tree, each in its own scratch directory, then `cmp`s the 14 tracked
# outputs (12 CSVs, fig7_metrics.json, fig7_audit.txt). Every run is
# deterministic, so any difference means a change altered the simulated
# behaviour. Prints each file that differs and exits non-zero if any does.
#
# Usage:
#   tools/check_artifacts.sh <build-dir>      # e.g. tools/check_artifacts.sh build
#   JOBS=2 tools/check_artifacts.sh build     # cap concurrent runs (default: nproc)
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi

repo="$(cd "$(dirname "$0")/.." && pwd)"
bench="$(cd "$1" && pwd)/bench"
jobs="${JOBS:-$(nproc)}"

# binary -> the tracked artifacts it writes to its working directory
declare -A artifacts=(
  [fig4a_all_publishers]="fig4a_all_publishers.csv"
  [fig4b_all_subscribers]="fig4b_all_subscribers.csv"
  [fig5_scalability]="fig5_dynamoth.csv fig5_dynamoth_metrics.csv fig5_hashing.csv"
  [fig6_load_ratio]="fig6_load_ratio.csv"
  [fig7_elasticity]="fig7_elasticity.csv fig7_metrics.csv fig7_metrics.json fig7_audit.txt"
  [ablation_cpu_aware]="ablation_cpu_aware.csv"
  [ablation_propagation]="ablation_propagation.csv"
  [ablation_replication]="ablation_replication.csv"
  [ablation_thresholds]="ablation_thresholds.csv"
)

for bin in "${!artifacts[@]}"; do
  if [ ! -x "$bench/$bin" ]; then
    echo "check_artifacts: missing $bench/$bin (build the tree first)" >&2
    exit 2
  fi
done

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# fig5 and fig7 dominate the wall clock: start them first.
order=(fig5_scalability fig7_elasticity fig4a_all_publishers fig4b_all_subscribers
       fig6_load_ratio ablation_cpu_aware ablation_propagation ablation_replication
       ablation_thresholds)
for bin in "${order[@]}"; do
  while [ "$(jobs -rp | wc -l)" -ge "$jobs" ]; do wait -n || true; done
  mkdir "$work/$bin"
  (cd "$work/$bin" && { "$bench/$bin" > stdout.txt 2>&1 && echo 0 || echo $?; } > status) &
done
wait

failed=0
count=0
for bin in "${order[@]}"; do
  status="$(cat "$work/$bin/status")"
  if [ "$status" != 0 ]; then
    echo "FAILED  $bin exited with status $status" >&2
    failed=1
  fi
  for file in ${artifacts[$bin]}; do
    count=$((count + 1))
    if [ ! -f "$work/$bin/$file" ]; then
      echo "MISSING $file (not written by $bin)"
      failed=1
    elif ! cmp -s "$work/$bin/$file" "$repo/$file"; then
      echo "DIFFERS $file"
      failed=1
    else
      echo "same    $file"
    fi
  done
done

if [ "$failed" != 0 ]; then
  echo "check_artifacts: artifacts differ from the checked-in copies" >&2
  exit 1
fi
echo "check_artifacts: all $count artifacts byte-identical"
