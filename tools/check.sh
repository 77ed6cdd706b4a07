#!/usr/bin/env bash
# Verification matrix: the correctness gate every PR runs before merging.
#
#   leg 1  lint      memfp-lint v2 static analysis over src/, tests/, bench/
#                    (token streams + cross-TU project graph: layering,
#                    parallel-capture, rng-discipline, unordered-iter).
#                    Builds ONLY the memfp_lint target, so the leg answers
#                    in seconds; `memfp_lint --rule=<name>` and `--graph`
#                    (include-DAG DOT dump) are available for local triage.
#   leg 2  werror    clean -Wall -Wextra -Werror build + full ctest
#   leg 3  asan      AddressSanitizer + UBSan build, full ctest
#   leg 4  tsan      ThreadSanitizer build, thread-pool + parallel
#                    determinism + sharded serving suites + GoldenPipeline
#                    (every pool caller, nested sections included; the
#                    full suite under TSan is ~20x and adds no extra
#                    coverage)
#   leg 5  scalar    full ctest with MEMFP_SIMD=scalar forced: the SIMD
#                    reference lane stays green on its own, and the
#                    dispatch-equality suites (Simd*, GoldenModels) re-run
#                    with every kernel pinned to the scalar table
#   leg 6  bench     bench_micro smoke run (tracked benches execute with
#                    minimal iterations, so bench binaries can't bit-rot),
#                    its raw JSON fed through tools/bench_json.py so the
#                    BENCH_*.json converter can't bit-rot either
#   leg 7  perf      perfbench/ (its own CMake package over ../src, so no
#                    other leg builds it): the harness self-test, which
#                    includes the pinned full-spec campaign hash, then one
#                    short run of each BENCHMARK.json workload; any
#                    non-zero exit (an oracle mismatch) fails the leg
#   leg 8  tidy      clang-tidy over src/ (advisory; skipped when the
#                    binary is not installed)
#
# Sanitizer coverage of the new trace-store/fleet-driver surface: the asan
# leg runs the full ctest (codec round-trip + corruption death tests), and
# the tsan leg's Determinism filter matches the FleetDriverDeterminism
# suites (parallel simulate/extract across shards).
#
# Every leg builds out-of-source under build-check/ so the developer build/
# tree is never poisoned by sanitizer objects. Usage:
#
#   tools/check.sh          # full matrix
#   tools/check.sh lint     # one leg (lint|werror|asan|tsan|scalar|bench|perf|tidy)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MATRIX_ROOT="${MATRIX_ROOT:-$ROOT/build-check}"
JOBS="${JOBS:-$(nproc)}"
LEG="${1:-all}"

log() { printf '\n==== check.sh: %s ====\n' "$*" >&2; }

configure_and_build() {
  local dir="$1"; shift
  cmake -B "$dir" -S "$ROOT" "$@" > /dev/null
  cmake --build "$dir" -j "$JOBS"
}

run_lint() {
  log "leg: lint (memfp-lint v2 static analysis)"
  # Shares the plain configure with scalar/bench/tidy but builds only the
  # analyzer target: a standalone `tools/check.sh lint` stays a seconds-fast
  # pre-commit gate even on a cold tree.
  local dir="$MATRIX_ROOT/plain"
  cmake -B "$dir" -S "$ROOT" > /dev/null
  cmake --build "$dir" -j "$JOBS" --target memfp_lint
  "$dir/tools/lint/memfp_lint" "$ROOT"
}

run_werror() {
  log "leg: werror (-Wall -Wextra -Werror, full ctest)"
  local dir="$MATRIX_ROOT/werror"
  configure_and_build "$dir" -DMEMFP_WERROR=ON
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_asan() {
  log "leg: asan (AddressSanitizer + UBSan, full ctest)"
  local dir="$MATRIX_ROOT/asan"
  configure_and_build "$dir" -DMEMFP_SANITIZE=address,undefined
  # halt_on_error: a UBSan report must fail the leg, not scroll past.
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_tsan() {
  log "leg: tsan (ThreadSanitizer, thread-pool + parallel determinism)"
  local dir="$MATRIX_ROOT/tsan"
  configure_and_build "$dir" -DMEMFP_SANITIZE=thread
  # The concurrency surface: the pool itself plus every parallelised path
  # (fleet sim, forest/GBDT training with nested per-feature sections,
  # scoring, sharded serving, the pipeline stages) exercised with >1 thread.
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
      -R 'ThreadPool|Parallel|Determinism|Serving|GoldenPipeline'
}

run_scalar() {
  log "leg: scalar (MEMFP_SIMD=scalar, full ctest)"
  local dir="$MATRIX_ROOT/plain"  # reuse the plain (non-sanitizer) configure
  cmake -B "$dir" -S "$ROOT" > /dev/null
  cmake --build "$dir" -j "$JOBS"
  # Same binaries, reference kernel table only: proves nothing silently
  # depends on a vector lane, and that scalar output still matches every
  # golden hash the vector lanes were verified against.
  MEMFP_SIMD=scalar \
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_bench() {
  log "leg: bench (bench_micro smoke run + BENCH JSON converter)"
  local dir="$MATRIX_ROOT/plain"  # reuse the plain (non-sanitizer) configure
  cmake -B "$dir" -S "$ROOT" > /dev/null
  cmake --build "$dir" -j "$JOBS" --target bench_micro
  # One fast pass over the perf-tracked benches: catches bench-only build
  # breaks and runtime crashes without recording numbers (run_benches.sh
  # owns the recorded trajectory).
  local raw="$MATRIX_ROOT/bench_micro_smoke.json"
  "$dir/bench/bench_micro" \
    --benchmark_filter='^BM_(Extract|FeaturesAt|Gemm|GemmBt)$|^BM_(GbdtTrain|TreeTrain)/rows:2000|^BM_(ForestPredict|GbdtPredict)(Walker)?/rows:2000' \
    --benchmark_min_time=0.01 \
    --benchmark_out="$raw" --benchmark_out_format=json > /dev/null
  # Every converter kind over the smoke output, into scratch paths: the
  # committed BENCH files are never touched.
  local kind
  for kind in train extract predict simd; do
    python3 "$ROOT/tools/bench_json.py" "$kind" \
      "$MATRIX_ROOT/BENCH_${kind}_smoke.json" "$raw" > /dev/null
  done
}

run_perf() {
  log "leg: perf (perfbench self-test + one short run per workload)"
  # run.py builds under $CARGO_TARGET_DIR; keep it beside the other legs.
  # The workloads write scratch files relative to the checkout root.
  export CARGO_TARGET_DIR="$MATRIX_ROOT/perfbench"
  cd "$ROOT"
  python3 perfbench/run.py --self-test
  local workload
  for workload in fleet-batch serve-steady serve-storm campaign-sweep; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
      --trace 0 > /dev/null
  done
}

run_tidy() {
  log "leg: tidy (clang-tidy, advisory)"
  if ! command -v clang-tidy > /dev/null 2>&1; then
    echo "clang-tidy not installed; skipping advisory leg" >&2
    return 0
  fi
  local dir="$MATRIX_ROOT/plain"  # reuse the plain configure
  cmake -B "$dir" -S "$ROOT" > /dev/null
  find "$ROOT/src" -name '*.cc' -print0 |
    xargs -0 -P "$JOBS" -n 8 clang-tidy -p "$dir" --quiet
}

case "$LEG" in
  lint)   run_lint ;;
  werror) run_werror ;;
  asan)   run_asan ;;
  tsan)   run_tsan ;;
  scalar) run_scalar ;;
  bench)  run_bench ;;
  perf)   run_perf ;;
  tidy)   run_tidy ;;
  all)
    run_lint
    run_werror
    run_asan
    run_tsan
    run_scalar
    run_bench
    run_perf
    run_tidy
    log "matrix green"
    ;;
  *)
    echo "usage: tools/check.sh [lint|werror|asan|tsan|scalar|bench|perf|tidy]" >&2
    exit 2
    ;;
esac
