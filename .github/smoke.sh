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

# The memory refusals under a 4 GiB address-space limit, with one BLAS thread: a
# rate-1 tabulated bridge 0 -> 3 at step 1e-7 must be refused (exit 2, the cap in its
# error) before its rate probe, which would take about 3 GiB; at step 1e-5 it must run
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
echo '{"family": "tabulated", "params": {"t_grid": [0, 0.5, 1], "z_min": 0,
       "rates": [[1, 1, 1, 1, 1], [1, 1, 1, 1, 1], [1, 1, 1, 1, 1]]}}' > "$dir/rate1.json"
(
  ulimit -v $((4 * 1024 * 1024))
  export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
  code=0
  python3 -m countbridge marginals --model "$dir/rate1.json" --y 3 --step 1e-7 --out "$dir/refused" 2> "$dir/err" || code=$?
  if [ "$code" != 2 ] || ! grep -q "the cap is 2 GiB" "$dir/err"; then
    cat "$dir/err"
    echo "marginals at step 1e-7 exited $code; want 2, with the cap in its error" >&2
    exit 1
  fi
  python3 -m countbridge marginals --model "$dir/rate1.json" --y 3 --step 1e-5 --out "$dir/admitted"
)

# An admitted fine step under a 1 GiB address-space limit, with one BLAS thread: the
# exact paths of lln read no output grid, so at step 1.6e-8, whose grid of 6.25e7
# times (477 MiB) the memory cap admits, they form none and must run
(
  ulimit -v $((1024 * 1024))
  export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
  python3 -m countbridge lln --lambda 1 --N 5 --N 10 --N 20 --replicas 3 --step 1.6e-8 --out "$dir/fine"
)
