#!/usr/bin/env bash
# Benchmark smoke runs: one short run of each workload, untraced and then traced,
# with a RuntimeWarning an error as in the test suite, so an overflow fails here.
# Each run's result line must read "correct": true.  Run from the repository root:
#   bash .github/smoke.sh
set -e
for trace in 0 1; do
  for w in marginals-tall paths-thinning cli-pipeline; do
    out="perfbench-$w-trace$trace.out"
    python3 -W error::RuntimeWarning perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace "$trace" > "$out"
    python3 -c 'import json, sys; r = json.loads(open(sys.argv[1]).read().splitlines()[-1]); sys.exit(0 if r["correct"] is True else f"{sys.argv[1]}: {r}")' "$out"
  done
done
