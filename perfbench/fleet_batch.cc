// fleet-batch: core::run_fleet_driver over a Purley fleet (56-day horizon,
// 2-day cadence, 16384-DIMM shards) scored by a LightGBM model trained in
// set-up. Oracle: the driver's trace/feature/score hashes equal
// core::reference_fleet_result. The traced run recomposes the driver from
// its public calls, timing each layer, and must fold the same hashes.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/fleet_driver.h"
#include "core/pipeline.h"
#include "dram/geometry.h"
#include "ml/dataset.h"
#include "sim/fleet.h"
#include "workloads.h"

namespace memfp::perfbench {
namespace {

constexpr std::size_t kDimmsPerShard = 16384;
constexpr double kFleetDimms = 2.0e4;
constexpr int kSetups = 5;

struct FleetInputs {
  sim::ScenarioParams params;
  core::FleetDriverConfig config;
  std::unique_ptr<ml::BinaryClassifier> model;
};

FleetInputs make_inputs(const RunOptions& options) {
  FleetInputs in;
  // The deployed scoring model: LightGBM trained once on a small, fixed
  // Purley fleet; only the scored fleet comes from the workload seed.
  const sim::FleetTrace train_fleet =
      sim::simulate_fleet(sim::purley_scenario(/*seed=*/7).scaled(0.12));
  core::PipelineConfig pipeline;
  pipeline.num_threads = options.threads;
  core::Experiment experiment(train_fleet, pipeline);
  in.model = experiment.run_with_model(core::Algorithm::kLightGbm).second;

  const sim::ScenarioParams base =
      sim::purley_scenario(derive_seed(options.seed, 2));
  const double base_total = static_cast<double>(sim::plan_fleet(base).total());
  in.params = base.scaled(kFleetDimms / base_total);
  in.params.horizon = days(56);

  in.config.store_dir = options.work_dir + "/fleet-store";
  in.config.num_threads = options.threads;
  in.config.windows.cadence = days(2);
  const std::size_t total = sim::plan_fleet(in.params).total();
  in.config.shards =
      std::max<std::size_t>(1, (total + kDimmsPerShard - 1) / kDimmsPerShard);
  return in;
}

bool same_hashes(const core::FleetDriverResult& a,
                 const core::FleetDriverResult& b) {
  return a.trace_hash == b.trace_hash && a.feature_hash == b.feature_hash &&
         a.score_hash == b.score_hash && a.events() == b.events() &&
         a.samples == b.samples;
}

std::string hashes(const core::FleetDriverResult& r) {
  return "trace " + hex(r.trace_hash) + " feature " + hex(r.feature_hash) +
         " score " + hex(r.score_hash);
}

// Per-layer wall seconds of one recomposed pass, plus the busy thread-time
// the two parallel sections spent per item.
struct LayerTimes {
  double simulate_s = 0.0, simulate_busy_s = 0.0;
  double encode_s = 0.0, open_s = 0.0;
  double decode_extract_s = 0.0, decode_busy_s = 0.0, extract_busy_s = 0.0;
  double assemble_s = 0.0, predict_s = 0.0;
  double wall_s = 0.0;
};

double busy_seconds(const std::vector<std::uint64_t>& ns) {
  std::uint64_t total = 0;
  for (const std::uint64_t v : ns) total += v;
  return static_cast<double>(total) / 1e9;
}

// run_fleet_driver rebuilt from FleetPlanner::take, simulate_planned_dimm,
// ShardWriter, TraceReader, read_dimm, FeatureExtractor::extract and
// predict_batch, timing each layer's calls. The decode and extract calls
// stay fused per DIMM exactly as in the driver; the section's wall time is
// split between them in proportion to their per-DIMM busy time.
core::FleetDriverResult recompose(const FleetInputs& in, int threads,
                                  LayerTimes& t) {
  const std::uint64_t pass_start = now_ns();
  const sim::ScenarioParams& params = in.params;
  std::filesystem::create_directories(in.config.store_dir);
  sim::DimmSimParams effective;
  effective.horizon = params.horizon;
  const sim::DimmSimulator simulator(params.platform, effective);
  const dram::Geometry geometry = dram::Geometry::ddr4_x4();
  const features::FeatureExtractor extractor(in.config.windows);
  ThreadPool::ScopedLimit limit(threads);

  core::FleetDriverResult result;
  sim::FleetPlanner planner(params);
  const std::size_t total = planner.plan().total();
  result.planned_dimms = total;
  const std::size_t shards = in.config.shards;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t begin = s * total / shards;
    const std::size_t end = (s + 1) * total / shards;

    std::uint64_t start = now_ns();
    const std::vector<sim::PlannedDimm> jobs = planner.take(end - begin);
    std::vector<sim::DimmTrace> traces(jobs.size());
    std::vector<std::uint64_t> sim_ns(jobs.size(), 0);
    ThreadPool::global().parallel_for(
        jobs.size(),
        [&](std::size_t i) {
          const std::uint64_t t0 = now_ns();
          traces[i] =
              sim::simulate_planned_dimm(jobs[i], params, simulator, geometry);
          sim_ns[i] = now_ns() - t0;
        },
        1);
    t.simulate_s += seconds_since(start);
    t.simulate_busy_s += busy_seconds(sim_ns);
    if (jobs.empty()) continue;

    const std::string path = sim::shard_path(in.config.store_dir, s);
    start = now_ns();
    {
      sim::ShardWriter writer(path, params.platform, params.horizon);
      for (std::size_t i = 0; i < traces.size(); ++i) {
        if (!sim::enters_observed_dataset(jobs[i].kind, traces[i])) continue;
        result.trace_hash =
            sim::fnv1a_u64(result.trace_hash, writer.append(traces[i]));
      }
      const sim::ShardStats stats = writer.finish();
      result.observed_dimms += stats.dimms;
      result.ce_records += stats.ce_records;
      result.mem_events += stats.mem_events;
      result.ue_records += stats.ue_records;
      result.suppressed_ces += stats.suppressed_ces;
      result.encoded_bytes += stats.file_bytes;
    }
    t.encode_s += seconds_since(start);
    traces.clear();
    traces.shrink_to_fit();

    start = now_ns();
    auto reader = std::make_unique<sim::TraceReader>(path);
    t.open_s += seconds_since(start);

    const std::size_t count = reader->dimm_count();
    std::vector<std::vector<features::Sample>> samples(count);
    std::vector<std::uint64_t> decode_ns(count, 0), extract_ns(count, 0);
    start = now_ns();
    ThreadPool::global().parallel_for(
        count,
        [&](std::size_t i) {
          const std::uint64_t t0 = now_ns();
          const sim::DimmTrace trace = reader->read_dimm(i);
          const std::uint64_t t1 = now_ns();
          samples[i] = extractor.extract(trace, params.horizon);
          decode_ns[i] = t1 - t0;
          extract_ns[i] = now_ns() - t1;
        },
        1);
    t.decode_extract_s += seconds_since(start);
    t.decode_busy_s += busy_seconds(decode_ns);
    t.extract_busy_s += busy_seconds(extract_ns);

    start = now_ns();
    ml::Matrix x;
    for (const std::vector<features::Sample>& dimm_samples : samples) {
      for (const features::Sample& sample : dimm_samples) {
        result.feature_hash = core::fold_sample_hash(result.feature_hash,
                                                     sample);
        x.push_row(sample.features);
      }
    }
    result.samples += x.rows();
    t.assemble_s += seconds_since(start);

    start = now_ns();
    if (x.rows() > 0) {
      for (const double score : in.model->predict_batch(x)) {
        result.score_hash = sim::fnv1a_u64(result.score_hash,
                                           std::bit_cast<std::uint64_t>(score));
        result.score_sum += score;
      }
    }
    t.predict_s += seconds_since(start);
    reader.reset();
    std::remove(path.c_str());
  }
  t.wall_s = seconds_since(pass_start);
  return result;
}

core::FleetDriverResult driver_pass(const FleetInputs& in) {
  return core::run_fleet_driver(in.params, in.config, in.model.get());
}

Result measure(const RunOptions& options) {
  Result result;
  FleetInputs in;
  EndToEnd e2e;
  e2e.setup_s =
      median_setup_cpu_seconds(kSetups, [&] { in = make_inputs(options); });

  std::vector<core::FleetDriverResult> runs;
  std::vector<double> rss_mb;
  bool rss_isolated = true;
  e2e.pass_seconds = timed_passes(options.seconds, 3, [&] {
    rss_isolated = reset_peak_rss() && rss_isolated;
    const Stopwatch watch;
    runs.push_back(driver_pass(in));
    const double wall_s = watch.wall_s();
    e2e.pass_cpu_seconds.push_back(watch.cpu_s());
    rss_mb.push_back(peak_rss_mb());
    return wall_s;
  });
  e2e.peak_rss_mb = median(rss_mb);

  // Oracles, outside the timed region.
  const core::FleetDriverResult& first = runs.front();
  for (const core::FleetDriverResult& run : runs) {
    result.attempted += run.samples;
    if (!same_hashes(run, first)) {
      result.failed += run.samples;
      result.fail("driver hashes differ between passes: " + hashes(run) +
                  " vs " + hashes(first));
    }
  }
  const core::FleetDriverResult reference = core::reference_fleet_result(
      in.params, in.config.windows, in.model.get());
  if (!same_hashes(first, reference)) {
    result.fail("run_fleet_driver " + hashes(first) +
                " != reference_fleet_result " + hashes(reference));
  }

  e2e.events = first.events();
  e2e.latencies_ms = batch_latencies_ms(e2e.pass_seconds);
  report_end_to_end(e2e, result);
  result.notes.push_back(
      "fleet-batch: " + std::to_string(first.planned_dimms) + " DIMMs in " +
      std::to_string(in.config.shards) + " shards, " +
      std::to_string(first.events()) + " events, " +
      std::to_string(first.samples) + " samples, " +
      std::to_string(runs.size()) + " passes; " + hashes(first));
  if (!rss_isolated) result.notes.push_back(kRssNotIsolated);
  return result;
}

Result traced(const RunOptions& options) {
  Result result;
  const FleetInputs in = make_inputs(options);
  const double half = options.seconds / 2.0;

  std::vector<core::FleetDriverResult> runs;
  const std::vector<double> untraced = timed_passes(half, 2, [&] {
    const Stopwatch watch;
    runs.push_back(driver_pass(in));
    return watch.wall_s();
  });

  std::vector<LayerTimes> layers;
  const std::vector<double> traced_s = timed_passes(half, 2, [&] {
    LayerTimes t;
    const core::FleetDriverResult r = recompose(in, options.threads, t);
    result.attempted += r.samples;
    if (!same_hashes(r, runs.front())) {
      result.failed += r.samples;
      result.fail("recomposition " + hashes(r) + " != run_fleet_driver " +
                  hashes(runs.front()));
    }
    layers.push_back(t);
    return t.wall_s;
  });

  // The traced pass with the median wall time stands for the run.
  std::vector<std::size_t> order(layers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return layers[a].wall_s < layers[b].wall_s;
  });
  const LayerTimes& t = layers[order[(order.size() - 1) / 2]];
  const double untraced_s = median(untraced);
  const double busy = t.decode_busy_s + t.extract_busy_s;
  const double decode_share = busy > 0.0 ? t.decode_busy_s / busy : 0.0;

  PerLayer p;
  p.sim_simulate_s = t.simulate_s;
  p.sim_cpu_util = t.simulate_busy_s / (t.simulate_s * options.threads);
  p.trace_store_encode_s = t.encode_s;
  p.trace_store_open_s = t.open_s;
  p.trace_store_decode_s = t.decode_extract_s * decode_share;
  p.trace_store_bytes_per_event =
      static_cast<double>(runs.front().encoded_bytes) /
      static_cast<double>(runs.front().events());
  p.features_extract_s = t.decode_extract_s * (1.0 - decode_share);
  p.features_cpu_util =
      busy / (t.decode_extract_s * static_cast<double>(options.threads));
  p.core_assemble_s = t.assemble_s;
  p.ml_predict_s = t.predict_s;
  const double layered = t.simulate_s + t.encode_s + t.open_s +
                         t.decode_extract_s + t.assemble_s + t.predict_s;
  p.fleet_self_s = untraced_s - layered;
  p.trace_overhead_s = median(traced_s) - untraced_s;
  report_per_layer(p, result);
  result.notes.push_back(
      "fleet-batch traced: untraced " + std::to_string(untraced_s) +
      " s (" + std::to_string(untraced.size()) + " passes), traced " +
      std::to_string(median(traced_s)) + " s (" +
      std::to_string(traced_s.size()) + " passes); recomposition " +
      hashes(runs.front()));
  return result;
}

}  // namespace

Result run_fleet_batch(const RunOptions& options) {
  return options.trace ? traced(options) : measure(options);
}

}  // namespace memfp::perfbench
