#!/usr/bin/env bash
# Run one multi-line step of .github/workflows/tests.yml by name, so a step can
# also be run by hand from any directory:
#   bash ci/step.sh console-script   # the installed `subsetharmony` command
#   bash ci/step.sh goldens          # re-record the goldens; they must not change
#   bash ci/step.sh benchmark        # each perfbench workload once, one traced twice
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

console_script() {
  # outside the checkout, so the installed package is the one that runs
  local tiny8="$root/tests/fixtures/tiny8.csv" status
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  cd "$work"
  subsetharmony --help
  subsetharmony eval --data "$tiny8" --features 0,1,2 --classifier knn --folds 2
  # k past every fold's training rows: each vote takes all of them, and tiny8's
  # folds train on as many rows of each class, so every vote ties to class 0,
  # right on half of the rows
  subsetharmony eval --data "$tiny8" --features 0,1,2 --classifier knn --neighbors 99 \
    --folds 2 > all_rows.txt
  grep -qx "accuracy: 50.00" all_rows.txt
  printf 'classifier = knn\nfolds = 2\n' > run.cfg
  subsetharmony eval --data "$tiny8" --features 0,1,2 --config run.cfg
  # scoring always standardizes, so the old switch is an unknown flag
  status=0
  subsetharmony eval --data "$tiny8" --features 0,1,2 --config run.cfg \
    --no-standardize 2> err.txt || status=$?
  test "$status" -eq 1
  grep -q "unrecognized arguments: --no-standardize" err.txt
  # harmony search flips inclusion bits, so there is no pitch bandwidth to set,
  # by flag or by config-file key
  status=0
  subsetharmony select --data "$tiny8" --k 3 --classifier knn --bandwidth 1.0 \
    2> err.txt || status=$?
  test "$status" -eq 1
  grep -q "unrecognized arguments: --bandwidth 1.0" err.txt
  printf 'classifier = knn\nbandwidth = 1.0\n' > bandwidth.cfg
  status=0
  subsetharmony select --data "$tiny8" --k 3 --config bandwidth.cfg \
    2> err.txt || status=$?
  test "$status" -eq 1
  grep -qF "bandwidth.cfg:2: unknown key 'bandwidth'" err.txt
  if grep -q Traceback err.txt; then exit 1; fi
  # a config-file key is a long flag name in full, not a prefix of one
  printf 'classifier = knn\nfold = 2\n' > prefix.cfg
  status=0
  subsetharmony eval --data "$tiny8" --features 0,1,2 --config prefix.cfg \
    2> err.txt || status=$?
  test "$status" -eq 1
  grep -q "prefix.cfg:2: unknown key 'fold'" err.txt
  # a key given twice is refused with both of its lines
  printf 'classifier = knn\nfolds = 2\nfolds = 5\n' > repeat.cfg
  status=0
  subsetharmony eval --data "$tiny8" --features 0,1,2 --config repeat.cfg \
    2> err.txt || status=$?
  test "$status" -eq 1
  grep -qF "repeat.cfg:3: repeated key 'folds' (first on line 2)" err.txt
  # a run is fixed by its command line and config file: SUBSETHARMONY_SEED
  # changes nothing
  subsetharmony select --data "$tiny8" --k 3 --classifier knn --folds 2 \
    --iterations 20 > plain.txt
  SUBSETHARMONY_SEED=7 subsetharmony select --data "$tiny8" --k 3 \
    --classifier knn --folds 2 --iterations 20 > env.txt
  cmp plain.txt env.txt
  # a config file that is not UTF-8 is a usage error naming it, not a traceback
  printf 'classifier = knn\nfolds = \377\n' > bad.cfg
  status=0
  subsetharmony eval --data "$tiny8" --features 0,1,2 --config bad.cfg \
    2> err.txt || status=$?
  test "$status" -eq 1
  grep -qF "bad.cfg: not UTF-8 text" err.txt
  if grep -q Traceback err.txt; then exit 1; fi
  # each report command runs its optimizers and writes a CSV report that starts
  # with its header
  local report=(--data "$tiny8" --classifier knn --folds 2)
  subsetharmony grid "${report[@]}" --k 3 --hms-values 2,3 --iteration-values 2,3 \
    --output grid.csv
  test "$(head -n 1 grid.csv)" = "iterations,2,3"
  subsetharmony fractions "${report[@]}" --fractions 25,50 --hms 3 --iterations 3 \
    --output fractions.csv
  test "$(head -n 1 fractions.csv)" = "fraction_percent,subset_size,accuracy_percent"
  subsetharmony compare "${report[@]}" --k 3 --optimizers hs,ga,pso,pca --hms 3 \
    --iterations 3 --population 4 --generations 2 --particles 4 --pso-iterations 2 \
    --output compare.csv
  test "$(head -n 1 compare.csv)" = "optimizer,subset_size,accuracy_percent,execution_seconds"
  # the MLP objective batches, so each PSO sweep is prefetched as one batch
  subsetharmony compare --data "$tiny8" --k 3 --optimizers pso --epochs 1 --folds 2 \
    --particles 4 --pso-iterations 2 --output compare_mlp.csv
  test "$(head -n 1 compare_mlp.csv)" = \
    "optimizer,subset_size,accuracy_percent,execution_seconds"
}

goldens() {
  # a golden edited by hand must equal what its recorder writes
  cd "$root"
  PYTHONPATH=src python tests/test_run_golden.py
  PYTHONPATH=src python tests/test_cli_golden.py
  git diff --exit-code -- tests/fixtures
}

benchmark() {
  # each workload once, and compare_knn traced (two traced runs must repeat every
  # count and output); the last stdout line is the run's JSON verdict
  cd "$root"
  local args
  for args in "select_mlp --trace 0" "compare_mlp --trace 0" \
              "compare_knn --trace 0" "compare_knn --trace 1"; do
    # shellcheck disable=SC2086  # args holds the workload and its flags
    python perfbench/run.py --workload $args --seconds 2 | tail -n 1 | python -c '
import json, sys
verdict = json.loads(sys.stdin.read())
sys.exit(0 if verdict["correct"] is True and verdict["failed"] == 0 else 1)'
  done
}

case "${1:-}" in
  console-script) console_script ;;
  goldens) goldens ;;
  benchmark) benchmark ;;
  *) echo "usage: $0 console-script|goldens|benchmark" >&2; exit 2 ;;
esac
