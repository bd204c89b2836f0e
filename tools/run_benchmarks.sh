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
echo "== chaos smoke (seeded fault plans + fault-off overhead) =="
python tools/chaos_smoke.py

echo
echo "== sweep smoke (cold run, then warm run must hit the cache) =="
SWEEP_TMP="$(mktemp -d)"
trap 'rm -rf "$SWEEP_TMP"' EXIT
cat > "$SWEEP_TMP/grid.json" <<'EOF'
{
  "name": "ci-smoke",
  "axes": {
    "workload": ["MM-16", "JACOBI-8x2", "CFFZINIT-5"],
    "nprocs": [2, 4]
  },
  "defaults": {"granularity": "coarse"}
}
EOF
python -m repro sweep "$SWEEP_TMP/grid.json" --jobs 2 --quiet \
  --cache-dir "$SWEEP_TMP/cache" -o "$SWEEP_TMP/cold.jsonl"
python -m repro sweep "$SWEEP_TMP/grid.json" --quiet \
  --cache-dir "$SWEEP_TMP/cache" -o "$SWEEP_TMP/warm.jsonl" \
  | tee "$SWEEP_TMP/warm.txt"
cmp "$SWEEP_TMP/cold.jsonl" "$SWEEP_TMP/warm.jsonl"
grep -q "6 cache hit(s)" "$SWEEP_TMP/warm.txt" \
  || { echo "sweep smoke: warm run did not hit the cache"; exit 1; }
echo "sweep smoke OK (6 jobs, warm run all cache hits, JSONL identical)"

echo
echo "== autotune smoke (tuned >= best global, warm plan-cache hit) =="
python tools/autotune_smoke.py

echo
echo "== partition smoke (mixed-plan wins, digest invariance, cache) =="
python tools/partition_smoke.py

echo
echo "== calibrate smoke (fit, warm-cache byte-identity, probe pruning) =="
python tools/calibrate_smoke.py

echo
echo "== check smoke (verifier corpus, sanitizer contract) =="
python tools/check_smoke.py

echo
echo "== wall-clock benchmark =="
python benchmarks/bench_wallclock.py "$@"

echo
echo "$BENCH_OUT:"
python -c "import json,sys; d=json.load(open(sys.argv[1])); print(json.dumps({'suite': d['suite'], 'rows': d['rows']}, indent=2))" "$BENCH_OUT"
