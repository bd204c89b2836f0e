#!/usr/bin/env bash
# Tier-1 tests + wall-clock benchmark, emitting BENCH_WALLCLOCK.json.
#
# Usage: tools/run_benchmarks.sh [--quick] [-o OUT.json]
#   --quick   skip the MM-1024 scale (fast CI smoke run)
#   -o OUT    benchmark output path (default: bench_wallclock.py's
#             DEFAULT_OUTPUT; the summary at the end reads whatever
#             path is in effect)
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

# The benchmark owns its default output path; read it from there so the
# summary step reads the same file the benchmark wrote.
BENCH_OUT="$(python -c 'from benchmarks.bench_wallclock import DEFAULT_OUTPUT; print(DEFAULT_OUTPUT)')"
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  case "${args[$i]}" in
    -o|--output) BENCH_OUT="${args[$((i + 1))]}" ;;
  esac
done

echo "== tier-1 tests (slow whole-program tests excluded) =="
python -m pytest -x -q -m "not slow"

echo
echo "== slow whole-program equivalence tests =="
python -m pytest -x -q -m slow

echo
echo "== docs snippet check (README/docs examples must run) =="
tools/check_docs.sh -m "not slow"

echo
echo "== wall-clock benchmark =="
python benchmarks/bench_wallclock.py "$@"

echo
echo "$BENCH_OUT:"
python -c "import json,sys; print(json.dumps(json.load(open(sys.argv[1]))['suite'], indent=2))" "$BENCH_OUT"
