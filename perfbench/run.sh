#!/usr/bin/env bash
# Build the benchmark from source and run one workload (see BENCHMARK.json
# and perfbench/metrics.json):
#
#   bash perfbench/run.sh --workload <contended_churn|fuzz_hostile|large_sparse> \
#     --seed <n> --seconds <s> --trace <0|1> [--domains <d>]
#
# (BENCHMARK.json names the first two; large_sparse runs only by hand)
# or, for every workload untraced and traced, each in its own process:
#
#   bash perfbench/run.sh --all --seed <n> --seconds <s> [--domains <d>]
#
# Run from the root of a checkout. Build output goes to stderr, so the last
# line of stdout is the result object.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./perfbench/main.exe 1>&2
if [ "${1:-}" = "--all" ]; then
  shift
  status=0
  for w in large_sparse contended_churn fuzz_hostile; do
    for t in 0 1; do
      ./_build/default/perfbench/main.exe --workload "$w" --trace "$t" "$@" || status=1
    done
  done
  exit "$status"
fi
exec ./_build/default/perfbench/main.exe "$@"
