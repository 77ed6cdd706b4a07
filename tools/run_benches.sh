#!/usr/bin/env bash
# Runs the perf-tracked micro-benches and emits the trajectory files at the
# repo root:
#   BENCH_train.json    BM_TreeTrain / BM_GbdtTrain row-count scaling vs the
#                       pre-binned-training baseline — rerun after changes
#                       to src/ml/{binning,decision_tree}*.
#   BENCH_extract.json  BM_Extract / BM_FeaturesAt (incremental sliding-
#                       window extraction + streaming serving) and
#                       BM_Gemm / BM_GemmBt (dense kernel unrolling) vs the
#                       pre-incremental baseline — rerun after changes to
#                       src/features/ or src/ml/tensor.cc.
#   BENCH_predict.json  BM_ForestPredict / BM_GbdtPredict row-count scaling
#                       of the flat batched inference engine. The baseline
#                       here is not frozen: the *Walker variants re-measure
#                       the pointer-walking per-row loop in the same run, so
#                       the speedup column compares the two layouts on
#                       identical hardware/load — rerun after changes to
#                       src/ml/flat_ensemble.* or the tree structures.
#   BENCH_simd.json     the tracked train/predict/gemm benches re-run with
#                       MEMFP_SIMD forced to every dispatch lane this host
#                       supports, plus the detected CPU features: records
#                       what each vector lane is worth over the scalar
#                       reference on this hardware — rerun after changes to
#                       src/common/simd*.
# Each file records the baseline, the current numbers, and the speedup.
# tools/bench_json.py turns each raw google-benchmark file into its BENCH
# file and holds the frozen baselines. End-to-end fleet, serving and
# campaign numbers come from perfbench/ (BENCHMARK.json), not from here.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"

if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -S "$ROOT"
fi

# Never record numbers from an instrumented build: sanitizers are 2-20x
# slowdowns, so the "speedup" column would be garbage that silently poisons
# the perf trajectory in BENCH_train.json.
SANITIZE="$(grep -E '^MEMFP_SANITIZE:' "$BUILD/CMakeCache.txt" | cut -d= -f2-)"
if [ -n "$SANITIZE" ]; then
  echo "refusing to record benchmarks: $BUILD is a sanitizer build" \
       "(MEMFP_SANITIZE=$SANITIZE); use a plain build dir" >&2
  exit 1
fi

cmake --build "$BUILD" -j --target bench_micro

# micro RAW FILTER: one bench_micro pass, written as google-benchmark JSON.
micro() {
  "$BUILD/bench/bench_micro" --benchmark_filter="$2" \
    --benchmark_out="$1" --benchmark_out_format=json >&2
}
CONVERT=(python3 "$ROOT/tools/bench_json.py")

RAW="$BUILD/bench_train_raw.json"
micro "$RAW" '^BM_(GbdtTrain|TreeTrain)/'
"${CONVERT[@]}" train "$ROOT/BENCH_train.json" "$RAW"

RAW_EXTRACT="$BUILD/bench_extract_raw.json"
micro "$RAW_EXTRACT" '^BM_(Extract|FeaturesAt|Gemm|GemmBt)$'
"${CONVERT[@]}" extract "$ROOT/BENCH_extract.json" "$RAW_EXTRACT"

RAW_PREDICT="$BUILD/bench_predict_raw.json"
micro "$RAW_PREDICT" '^BM_(ForestPredict|GbdtPredict)(Walker)?/'
"${CONVERT[@]}" predict "$ROOT/BENCH_predict.json" "$RAW_PREDICT"

# Per-dispatch-lane timings. The context block knows which lanes this host
# can run (bench_micro stamps simd_supported into every raw file — reuse
# the predict run's); each supported lane re-runs the tracked kernels with
# MEMFP_SIMD forced, so the file shows the vector lanes' worth over the
# scalar reference on identical hardware/load.
SUPPORTED="$(python3 -c \
  "import json,sys; print(json.load(open(sys.argv[1]))['context']['simd_supported'])" \
  "$RAW_PREDICT")"
SIMD_RAWS=()
for level in $SUPPORTED; do
  raw="$BUILD/bench_simd_${level}_raw.json"
  MEMFP_SIMD="$level" micro "$raw" \
    '^BM_(TreeTrain|ForestPredict|GbdtPredict)/rows:50000$|^BM_(Gemm|GemmBt)$'
  SIMD_RAWS+=("$raw")
done
"${CONVERT[@]}" simd "$ROOT/BENCH_simd.json" "${SIMD_RAWS[@]}"
