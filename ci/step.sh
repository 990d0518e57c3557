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
  printf 'classifier = knn\nfolds = 2\n' > run.cfg
  subsetharmony eval --data "$tiny8" --features 0,1,2 --config run.cfg
  # scoring always standardizes, so the old switch is an unknown flag
  status=0
  subsetharmony eval --data "$tiny8" --features 0,1,2 --config run.cfg \
    --no-standardize 2> err.txt || status=$?
  test "$status" -eq 1
  grep -q "unrecognized arguments: --no-standardize" err.txt
  # a config-file key is a long flag name in full, not a prefix of one
  printf 'classifier = knn\nfold = 2\n' > prefix.cfg
  status=0
  subsetharmony eval --data "$tiny8" --features 0,1,2 --config prefix.cfg \
    2> err.txt || status=$?
  test "$status" -eq 1
  grep -q "prefix.cfg:2: unknown key 'fold'" err.txt
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
