#!/usr/bin/env bash
# Mirror .github/workflows/ci.yml on the local machine, without GitHub
# Actions — the pre-push answer to "will CI be green?".
#
#   tools/ci_local.sh           # full matrix: Debug+Release, ASan+TSan,
#                               # bench smoke, servebench smoke,
#                               # format check
#   tools/ci_local.sh --quick   # PR-sized subset: Release only, ASan on
#                               # the obs/gateway/swap tests, bench smoke,
#                               # servebench smoke
#
# Each stage reports PASS/FAIL and the script exits non-zero if any
# stage failed, so it is scriptable. ccache is used when present.
set -uo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

QUICK=0
[ "${1:-}" = "--quick" ] && QUICK=1

JOBS="$(nproc)"
LAUNCHER=""
if command -v ccache > /dev/null 2>&1; then
  LAUNCHER="-DCMAKE_CXX_COMPILER_LAUNCHER=ccache"
fi

declare -a RESULTS=()
FAILED=0

run_stage() {
  local name="$1"
  shift
  echo ""
  echo "=== stage: $name ==="
  if "$@"; then
    RESULTS+=("PASS  $name")
  else
    RESULTS+=("FAIL  $name")
    FAILED=1
  fi
}

build_and_test() {
  local build_type="$1" dir="$2"
  # shellcheck disable=SC2086  # LAUNCHER is an optional flag
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE="$build_type" \
    -DSERENADE_WERROR=ON \
    $LAUNCHER &&
    cmake --build "$dir" -j "$JOBS" &&
    tools/ctest_flaky_guard.sh "$dir" -j "$JOBS"
}

bench_smoke() {
  # Mirrors the CI bench-smoke job: the same bench binaries at smoke
  # scale, then the perf regression gate against bench/baselines/.
  local dir="$1"
  export SERENADE_BENCH_SCALE=0.05 SERENADE_BENCH_SECONDS=2
  mkdir -p "$dir/bench-results" &&
    "$dir/bench/fig3a_microbenchmark" \
      --benchmark_min_time=0.05 \
      --benchmark_out="$dir/bench-results/fig3a_microbenchmark.json" \
      --benchmark_out_format=json &&
    SERENADE_BENCH_JSON="$dir/bench-results/index_swap_bench.json" \
      "$dir/bench/index_swap_bench" &&
    SERENADE_BENCH_JSON="$dir/bench-results/recommend_batch_bench.json" \
      "$dir/bench/recommend_batch_bench" &&
    SERENADE_BENCH_JSON="$dir/bench-results/index_freshness_bench.json" \
      "$dir/bench/index_freshness_bench" &&
    SERENADE_BENCH_JSON="$dir/bench-results/complexity_validation_bench.json" \
      "$dir/bench/complexity_validation_bench" &&
    SERENADE_BENCH_JSON="$dir/bench-results/rebalance_bench.json" \
      "$dir/bench/rebalance_bench" &&
    SERENADE_BENCH_JSON="$dir/bench-results/ann_retrieval_bench.json" \
      "$dir/bench/ann_retrieval_bench" &&
    ulimit -n "$(ulimit -Hn)" &&
    SERENADE_BENCH_JSON="$dir/bench-results/fig3b_load_test.json" \
      SERENADE_BENCH_CONNECTIONS=10000 \
      "$dir/bench/fig3b_load_test" &&
    python3 tools/check_bench_regression.py --self-test &&
    python3 tools/check_bench_regression.py --results "$dir/bench-results" &&
    echo "bench results in $dir/bench-results/"
}

servebench_smoke() {
  # Mirrors the CI servebench-smoke job: a short traced run of each gated
  # workload, asserting only "correct": true on the result line.
  local workload out
  for workload in fleet_single pod_direct_hot; do
    out="$(python3 servebench/run.py --workload "$workload" --seed 1 \
      --seconds 4 --trace 1 --build-type Release)" || return 1
    tail -n 1 <<< "$out" | python3 -c \
      'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)' ||
      return 1
  done
}

sanitized() {
  tools/run_sanitized_tests.sh "$@"
}

fuzz_smoke() {
  local dir="$1" seconds="$2"
  cmake --build "$dir" -j "$JOBS" --target serenade_fuzz &&
    SERENADE_FUZZ_SECONDS="$seconds" \
      "$dir/tools/serenade_fuzz" --family both --seed 20260806
}

if [ "$QUICK" -eq 1 ]; then
  run_stage "build-test (Release)" build_and_test Release build-ci-release
  run_stage "sanitize (address, subset)" sanitized address \
    -R 'Metrics|Trace|SlowRequest|Gateway|Service|IndexSwap|FaultInjector|WalTorture'
  run_stage "fuzz smoke (5s)" fuzz_smoke build-ci-release 5
  run_stage "bench smoke" bench_smoke build-ci-release
else
  run_stage "build-test (Debug)" build_and_test Debug build-ci-debug
  run_stage "build-test (Release)" build_and_test Release build-ci-release
  run_stage "sanitize (address)" sanitized address
  run_stage "sanitize (thread)" sanitized thread
  run_stage "fuzz smoke (30s)" fuzz_smoke build-ci-release 30
  run_stage "bench smoke" bench_smoke build-ci-release
fi
run_stage "servebench smoke" servebench_smoke
run_stage "format check" tools/check_format.sh

echo ""
echo "=== ci_local summary ==="
for LINE in "${RESULTS[@]}"; do echo "$LINE"; done
exit "$FAILED"
