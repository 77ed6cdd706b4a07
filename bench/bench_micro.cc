// Micro-benchmarks (google-benchmark) of the substrate hot paths: ECC
// classification, fault pattern sampling, DIMM simulation, feature
// extraction, tree/GBDT training and inference, and the autodiff forward
// pass.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "bench_common.h"
#include "common/json.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "core/stages.h"
#include "dram/ecc.h"
#include "dram/fault.h"
#include "features/extractor.h"
#include "ml/autodiff.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "sim/dimm_sim.h"
#include "sim/fleet.h"

namespace {

using namespace memfp;

const dram::Geometry kGeometry = dram::Geometry::ddr4_x4();

dram::Fault bench_fault() {
  dram::Fault fault;
  fault.mode = dram::FaultMode::kRow;
  fault.scope = dram::DeviceScope::kSingleDevice;
  fault.anchor = {0, 3, 5, 12345, 321};
  fault.devices = {3};
  fault.escalating = true;
  return fault;
}

void BM_EccClassify(benchmark::State& state) {
  const auto ecc = dram::make_platform_ecc(dram::Platform::kIntelPurley);
  const dram::FaultPatternModel model(dram::Platform::kIntelPurley, kGeometry);
  Rng rng(1);
  std::vector<dram::ErrorPattern> patterns;
  for (int i = 0; i < 256; ++i) {
    patterns.push_back(model.sample(bench_fault(), 0.9, rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ecc->classify(patterns[i++ % patterns.size()], kGeometry));
  }
}
BENCHMARK(BM_EccClassify);

void BM_FaultPatternSample(benchmark::State& state) {
  const dram::FaultPatternModel model(dram::Platform::kIntelWhitley,
                                      kGeometry);
  dram::Fault fault = bench_fault();
  fault.scope = dram::DeviceScope::kMultiDevice;
  fault.devices = {3, 9};
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.sample(fault, 0.8, rng));
  }
}
BENCHMARK(BM_FaultPatternSample);

void BM_DimmSimulation(benchmark::State& state) {
  sim::DimmSimParams params;
  params.horizon = days(90);
  const sim::DimmSimulator simulator(dram::Platform::kIntelPurley, params);
  dram::Fault fault = bench_fault();
  fault.escalating = false;
  fault.ce_rate_per_hour = 0.5;
  Rng rng(3);
  for (auto _ : state) {
    Rng run_rng = rng.fork();
    benchmark::DoNotOptimize(
        simulator.run(0, 0, dram::DimmConfig{}, {fault}, run_rng));
  }
}
BENCHMARK(BM_DimmSimulation);

const sim::FleetTrace& feature_fleet() {
  static const sim::FleetTrace fleet =
      sim::simulate_fleet(sim::purley_scenario().scaled(0.02));
  return fleet;
}

void BM_FeatureExtractionPerDimm(benchmark::State& state) {
  const features::FeatureExtractor extractor;
  const sim::FleetTrace& fleet = feature_fleet();
  std::size_t i = 0;
  for (auto _ : state) {
    const sim::DimmTrace& dimm = fleet.dimms[i++ % fleet.dimms.size()];
    benchmark::DoNotOptimize(extractor.extract(dimm, fleet.horizon));
  }
}
BENCHMARK(BM_FeatureExtractionPerDimm);

// Storm-heavy single-DIMM trace: CE bursts (with storm events) over a long
// horizon, so the observation window holds thousands of CEs for most ticks.
// This is the worst case for per-tick window rescans and the headline
// workload of BENCH_extract.json.
sim::DimmTrace storm_trace(std::uint64_t seed, int storms, int ces_per_storm,
                           SimTime horizon) {
  Rng rng(seed);
  sim::DimmTrace trace;
  trace.id = 11;
  std::vector<dram::CeEvent> ces;
  for (int s = 0; s < storms; ++s) {
    const SimTime start = rng.uniform_u64(static_cast<std::uint64_t>(horizon));
    dram::MemEvent storm;
    storm.time = start;
    storm.type = dram::MemEventType::kCeStorm;
    trace.events.push_back(storm);
    for (int i = 0; i < ces_per_storm; ++i) {
      dram::CeEvent ce;
      ce.time = start + static_cast<SimTime>(rng.uniform_u64(hours(2)));
      ce.coord = {static_cast<int>(rng.uniform_u64(2)),
                  static_cast<int>(rng.uniform_u64(18)),
                  static_cast<int>(rng.uniform_u64(16)),
                  static_cast<int>(rng.uniform_u64(1 << 17)),
                  static_cast<int>(rng.uniform_u64(1 << 10))};
      const int dq = static_cast<int>(rng.uniform_u64(72));
      ce.pattern.add({static_cast<std::uint8_t>(dq),
                      static_cast<std::uint8_t>(rng.uniform_u64(8))});
      if (rng.bernoulli(0.3)) {
        ce.pattern.add({static_cast<std::uint8_t>((dq + 4) % 72),
                        static_cast<std::uint8_t>(rng.uniform_u64(8))});
      }
      ces.push_back(ce);
    }
  }
  std::sort(ces.begin(), ces.end(),
            [](const dram::CeEvent& a, const dram::CeEvent& b) {
              return a.time < b.time;
            });
  std::sort(trace.events.begin(), trace.events.end(),
            [](const dram::MemEvent& a, const dram::MemEvent& b) {
              return a.time < b.time;
            });
  trace.ces = std::move(ces);
  return trace;
}

// Batch extraction over a storm-heavy 5k-tick trace (hourly cadence). The
// BENCH_extract.json speedup row compares this against the pre-incremental
// extractor, which rescanned the full observation window every tick.
void BM_Extract(benchmark::State& state) {
  features::PredictionWindows windows;
  windows.cadence = kHour;
  const SimTime horizon = hours(5000);
  const features::FeatureExtractor extractor(windows);
  const sim::DimmTrace trace = storm_trace(41, 40, 250, horizon - days(6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.extract(trace, horizon));
  }
}
BENCHMARK(BM_Extract)->Unit(benchmark::kMillisecond);

// Repeated per-DIMM online scoring: one DIMM's features served at 200
// successive timestamps, the access pattern of OnlinePredictionService::
// run_over and of threshold sweeps. Uses the streaming serving path (one
// persistent OnlineExtractorState, telemetry fed as it arrives) — the
// BENCH_extract.json speedup row compares this against the pre-incremental
// features_at, which deep-copied the trace and rebuilt an extractor per call.
void BM_FeaturesAt(benchmark::State& state) {
  const features::FeatureExtractor extractor;
  const SimTime horizon = hours(5000);
  const sim::DimmTrace trace = storm_trace(43, 40, 100, horizon - days(6));
  std::vector<float> features;
  for (auto _ : state) {
    features::OnlineExtractorState stream =
        extractor.open_stream(trace.config, trace.workload);
    std::size_t next_ce = 0;
    std::size_t next_event = 0;
    for (SimTime t = hours(24); t <= horizon; t += hours(25)) {
      while (next_ce < trace.ces.size() && trace.ces[next_ce].time <= t) {
        stream.observe_ce(trace.ces[next_ce++]);
      }
      while (next_event < trace.events.size() &&
             trace.events[next_event].time <= t) {
        stream.observe_event(trace.events[next_event++]);
      }
      stream.features_at(t, features);
      benchmark::DoNotOptimize(features);
    }
  }
}
BENCHMARK(BM_FeaturesAt)->Unit(benchmark::kMillisecond);

ml::Dataset bench_dataset(std::size_t rows) {
  Rng rng(4);
  ml::Dataset d;
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<float> row(30);
    for (float& v : row) v = static_cast<float>(rng.normal());
    d.x.push_row(row);
    d.y.push_back(rng.bernoulli(0.2) ? 1 : 0);
    d.weight.push_back(1.0f);
    d.dimm.push_back(static_cast<dram::DimmId>(i));
    d.time.push_back(0);
  }
  return d;
}

// Row-count scaling of the binned trainers (single-threaded so the numbers
// isolate the columnar-histogram work, not the pool). tools/run_benches.sh
// records these into BENCH_train.json as the perf trajectory.
void row_args(benchmark::internal::Benchmark* bench) {
  bench->ArgName("rows");
  bench->Arg(2000);
  bench->Arg(10000);
  bench->Arg(50000);
}

void BM_GbdtTrain(benchmark::State& state) {
  ThreadPool::ScopedLimit cap(1);
  const ml::Dataset d = bench_dataset(static_cast<std::size_t>(state.range(0)));
  ml::GbdtParams params;
  params.max_rounds = 30;
  params.early_stopping_rounds = 0;
  for (auto _ : state) {
    Rng rng(5);
    ml::Gbdt model(params);
    model.fit(d, rng);
    benchmark::DoNotOptimize(model.rounds_used());
  }
}
BENCHMARK(BM_GbdtTrain)->Apply(row_args)->Unit(benchmark::kMillisecond);

void BM_TreeTrain(benchmark::State& state) {
  ThreadPool::ScopedLimit cap(1);
  const ml::Dataset d = bench_dataset(static_cast<std::size_t>(state.range(0)));
  const ml::BinnedDataset binned = ml::BinnedDataset::build(d);
  std::vector<std::size_t> rows(d.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const ml::ClassificationTreeParams params;
  for (auto _ : state) {
    Rng rng(9);
    const ml::Tree tree = ml::fit_classification_tree(binned, rows, params, rng);
    benchmark::DoNotOptimize(tree.nodes().size());
  }
}
BENCHMARK(BM_TreeTrain)->Apply(row_args)->Unit(benchmark::kMillisecond);

// --- Batch prediction: flat engine vs pointer walker ------------------------
//
// Models are trained once per process (function-local statics) on the
// 2000-row config; the benchmarks scale the *scored* row count. The Walker
// variants reproduce the pre-flat semantics — per row, walk every
// pointer-linked tree via Tree::predict — and are the baseline column of
// BENCH_predict.json. The non-walker variants call Model::predict_batch,
// which dispatches to the compiled FlatEnsemble. All four run single-threaded
// so the JSON speedup isolates the layout/batching win, not the pool.

const ml::RandomForest& predict_forest_model() {
  static const ml::RandomForest model = [] {
    ml::RandomForestParams params;
    params.trees = 100;
    ml::RandomForest fitted(params);
    Rng rng(6);
    fitted.fit(bench_dataset(2000), rng);
    return fitted;
  }();
  return model;
}

const ml::Gbdt& predict_gbdt_model() {
  static const ml::Gbdt model = [] {
    ml::GbdtParams params;
    params.max_rounds = 100;
    params.early_stopping_rounds = 0;
    ml::Gbdt fitted(params);
    Rng rng(6);
    fitted.fit(bench_dataset(2000), rng);
    return fitted;
  }();
  return model;
}

void BM_ForestPredict(benchmark::State& state) {
  ThreadPool::ScopedLimit cap(1);
  const ml::RandomForest& model = predict_forest_model();
  const ml::Dataset d = bench_dataset(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_batch(d.x));
  }
}
BENCHMARK(BM_ForestPredict)->Apply(row_args)->Unit(benchmark::kMillisecond);

void BM_ForestPredictWalker(benchmark::State& state) {
  ThreadPool::ScopedLimit cap(1);
  const ml::RandomForest& model = predict_forest_model();
  const ml::Dataset d = bench_dataset(static_cast<std::size_t>(state.range(0)));
  std::vector<double> scores(d.size());
  for (auto _ : state) {
    for (std::size_t r = 0; r < d.size(); ++r) {
      double total = 0.0;
      for (const ml::Tree& tree : model.trees()) {
        total += tree.predict(d.x.row(r));
      }
      scores[r] = total / static_cast<double>(model.trees().size());
    }
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_ForestPredictWalker)->Apply(row_args)
    ->Unit(benchmark::kMillisecond);

void BM_GbdtPredict(benchmark::State& state) {
  ThreadPool::ScopedLimit cap(1);
  const ml::Gbdt& model = predict_gbdt_model();
  const ml::Dataset d = bench_dataset(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_batch(d.x));
  }
}
BENCHMARK(BM_GbdtPredict)->Apply(row_args)->Unit(benchmark::kMillisecond);

void BM_GbdtPredictWalker(benchmark::State& state) {
  ThreadPool::ScopedLimit cap(1);
  const ml::Gbdt& model = predict_gbdt_model();
  const Json json = model.to_json();
  const double base = json.at("base_score").as_number();
  const double lr = json.at("learning_rate").as_number();
  const ml::Dataset d = bench_dataset(static_cast<std::size_t>(state.range(0)));
  std::vector<double> scores(d.size());
  for (auto _ : state) {
    for (std::size_t r = 0; r < d.size(); ++r) {
      double raw = base;
      for (const ml::Tree& tree : model.trees()) {
        raw += lr * tree.predict(d.x.row(r));
      }
      scores[r] = 1.0 / (1.0 + std::exp(-raw));
    }
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_GbdtPredictWalker)->Apply(row_args)
    ->Unit(benchmark::kMillisecond);

void BM_ForestTrain(benchmark::State& state) {
  const ml::Dataset d = bench_dataset(2000);
  ml::RandomForestParams params;
  params.trees = 30;
  for (auto _ : state) {
    Rng rng(7);
    ml::RandomForest model(params);
    model.fit(d, rng);
    benchmark::DoNotOptimize(model.trees().size());
  }
}
BENCHMARK(BM_ForestTrain)->Unit(benchmark::kMillisecond);

// Dense gemm kernels at FT-Transformer shapes (batch*tokens x d_model). The
// inputs are fully dense, the common case in training — the kernels must not
// pay for sparse-input branches here.
void BM_Gemm(benchmark::State& state) {
  Rng rng(10);
  const std::size_t m = 256, k = 64, n = 64;
  const ml::Tensor a = ml::Tensor::random_uniform(m, k, 0.5f, rng);
  const ml::Tensor b = ml::Tensor::random_uniform(k, n, 0.5f, rng);
  ml::Tensor out(m, n);
  for (auto _ : state) {
    ml::gemm(a, b, out, /*accumulate=*/true);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Gemm)->Unit(benchmark::kMicrosecond);

void BM_GemmBt(benchmark::State& state) {
  Rng rng(11);
  const std::size_t m = 256, k = 64, n = 64;
  const ml::Tensor a = ml::Tensor::random_uniform(m, k, 0.5f, rng);
  const ml::Tensor b = ml::Tensor::random_uniform(n, k, 0.5f, rng);
  ml::Tensor out(m, n);
  for (auto _ : state) {
    ml::gemm_bt(a, b, out, /*accumulate=*/true);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GemmBt)->Unit(benchmark::kMicrosecond);

void BM_AttentionForward(benchmark::State& state) {
  Rng rng(8);
  const auto tokens = 51, d_model = 16;
  ml::Tensor q = ml::Tensor::random_uniform(4 * tokens, d_model, 0.5f, rng);
  for (auto _ : state) {
    ml::Graph graph;
    const int qi = graph.leaf(q, false);
    benchmark::DoNotOptimize(graph.attention(qi, qi, qi, tokens, 2));
  }
}
BENCHMARK(BM_AttentionForward)->Unit(benchmark::kMicrosecond);

void BM_FleetSimulation(benchmark::State& state) {
  const sim::ScenarioParams scenario = sim::purley_scenario().scaled(0.02);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_fleet(scenario));
  }
}
BENCHMARK(BM_FleetSimulation)->Unit(benchmark::kMillisecond);

// --- Parallel hot paths -----------------------------------------------------
//
// Each benchmark takes the thread count as its argument (1 / 2 / pool
// default), capping the pool with ScopedLimit, so the speedup trajectory is
// visible in the bench JSON. Outputs are byte-identical across thread counts
// (the determinism contract); only wall-clock changes.

void thread_args(benchmark::internal::Benchmark* bench) {
  bench->ArgName("threads");
  bench->Arg(1);
  bench->Arg(2);
  const int full = ThreadPool::default_threads();
  if (full > 2) bench->Arg(full);
}

void BM_ParallelFleetSim(benchmark::State& state) {
  ThreadPool::ScopedLimit cap(static_cast<int>(state.range(0)));
  const sim::ScenarioParams scenario = sim::purley_scenario().scaled(0.05);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_fleet(scenario));
  }
}
BENCHMARK(BM_ParallelFleetSim)->Apply(thread_args)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelForestFit(benchmark::State& state) {
  ThreadPool::ScopedLimit cap(static_cast<int>(state.range(0)));
  const ml::Dataset d = bench_dataset(2000);
  ml::RandomForestParams params;
  params.trees = 30;
  for (auto _ : state) {
    Rng rng(7);
    ml::RandomForest model(params);
    model.fit(d, rng);
    benchmark::DoNotOptimize(model.trees().size());
  }
}
BENCHMARK(BM_ParallelForestFit)->Apply(thread_args)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelGbdtFit(benchmark::State& state) {
  ThreadPool::ScopedLimit cap(static_cast<int>(state.range(0)));
  const ml::Dataset d = bench_dataset(4000);
  ml::GbdtParams params;
  params.max_rounds = 30;
  params.early_stopping_rounds = 0;
  for (auto _ : state) {
    Rng rng(5);
    ml::Gbdt model(params);
    model.fit(d, rng);
    benchmark::DoNotOptimize(model.rounds_used());
  }
}
BENCHMARK(BM_ParallelGbdtFit)->Apply(thread_args)
    ->Unit(benchmark::kMillisecond);

void BM_ScoreDimms(benchmark::State& state) {
  // Train once (shared across thread-count variants); time only the
  // batched scoring of the held-out DIMMs' eval partition — the paper's
  // operational bottleneck.
  static const sim::FleetTrace& fleet = feature_fleet();
  static core::Experiment* experiment = [] {
    return new core::Experiment(fleet, core::PipelineConfig{});
  }();
  static const ml::BinaryClassifier* model = [] {
    auto fitted = experiment->run_with_model(core::Algorithm::kRandomForest);
    return fitted.second.release();
  }();
  ThreadPool::ScopedLimit cap(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const core::ScoreStreamSet scored =
        core::score_partition(*model, experiment->test_partition());
    benchmark::DoNotOptimize(scored.scores.data());
  }
}
BENCHMARK(BM_ScoreDimms)->Apply(thread_args)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of benchmark_main: stamps the JSON context block with
// the facts the run_benches.sh trajectory files need to stay interpretable —
// the real online CPU count (benchmark's own `num_cpus` probe reports 1 in
// this VM), the SIMD lane the runtime dispatcher picked (or MEMFP_SIMD
// forced), every lane this host supports, and the raw CPU feature list.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "num_cpus_online", std::to_string(memfp::bench::num_cpus_online()));
  benchmark::AddCustomContext("simd_level",
                              simd::level_name(simd::active_level()));
  std::string supported;
  for (const simd::Level level : simd::supported_levels()) {
    if (!supported.empty()) supported += ' ';
    supported += simd::level_name(level);
  }
  benchmark::AddCustomContext("simd_supported", supported);
  benchmark::AddCustomContext("cpu_features", simd::cpu_features());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
