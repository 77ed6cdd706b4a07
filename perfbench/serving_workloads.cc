// serve-steady and serve-storm: mlops::ServingEngine::run_over driven as a
// closed loop — one in-process caller replays a whole in-memory fleet as
// fast as the engine takes it, pass after pass.
//
//  - serve-steady: a simulated K920 fleet scored by a K920-trained LightGBM
//    model at its tuned threshold, admission off. Oracle: score_hash and
//    alarm_hash equal ServingEngine::run_reference.
//  - serve-storm: a generated CE-storm fleet (every 8th DIMM bursts a few
//    hundred CEs per 6-hour tick), admission on, alarms off so every stream
//    is served to the end. Oracle: every pass folds identical hashes, and
//    with admission off the engine equals run_reference.
//
// The traced run reports the engine's own counters plus two standalone
// replays of the same ticks: streaming feature extraction and 64-row
// predict_batch blocks. They are costs, not a partition of the engine's
// wall time.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "ml/dataset.h"
#include "mlops/serving.h"
#include "sim/fleet.h"
#include "workloads.h"

namespace memfp::perfbench {
namespace {

constexpr int kSetups = 3;
// Planned DIMMs of the steady fleet, and generated DIMMs of the storm.
constexpr double kSteadyDimms = 1.5e4;
constexpr std::size_t kStormDimms = 2048;
// Streams per serving shard: a storm stream costs far more than a steady one.
constexpr std::size_t kSteadyStreamsPerShard = 512;
constexpr std::size_t kStormStreamsPerShard = 128;

struct ServeInputs {
  sim::FleetTrace fleet;
  std::unique_ptr<ml::BinaryClassifier> model;
  double threshold = 0.0;
  SimTime start = 0;
  SimTime end = 0;
  SimDuration cadence = 0;
  mlops::ServingConfig config;
};

// The deployed K920 LightGBM model and its validation-tuned threshold. Like
// a model in production it is trained once, on a fixed fleet; only the
// served telemetry comes from the workload seed.
void train_k920_model(const RunOptions& options, ServeInputs& in) {
  const sim::FleetTrace train_fleet =
      sim::simulate_fleet(sim::k920_scenario().scaled(0.25));
  core::PipelineConfig pipeline;
  pipeline.num_threads = options.threads;
  core::Experiment experiment(train_fleet, pipeline);
  auto [eval, model] = experiment.run_with_model(core::Algorithm::kLightGbm);
  in.model = std::move(model);
  in.threshold = eval.threshold;
}

ServeInputs steady_inputs(const RunOptions& options) {
  ServeInputs in;
  train_k920_model(options, in);
  const sim::ScenarioParams base =
      sim::k920_scenario(derive_seed(options.seed, 3));
  const double base_total = static_cast<double>(sim::plan_fleet(base).total());
  sim::ScenarioParams params = base.scaled(kSteadyDimms / base_total);
  params.horizon = days(56);
  {
    ThreadPool::ScopedLimit limit(options.threads);
    in.fleet = sim::simulate_fleet(params);
  }
  in.start = days(6);
  in.end = days(56);
  in.cadence = days(2);
  return in;
}

// Every 8th DIMM bursts 200-400 CEs (seeded per DIMM) in each 6-hour tick
// over distinct cells, which keeps its observation window fat; the rest
// trickle one CE a tick. Times and cells are seeded too.
sim::FleetTrace storm_fleet(std::uint64_t seed, std::size_t dimms,
                            SimTime start, SimTime end, SimDuration cadence) {
  Rng rng(seed);
  sim::FleetTrace fleet;
  fleet.platform = dram::Platform::kK920;
  fleet.horizon = end + days(1);
  for (dram::DimmId id = 0; id < dimms; ++id) {
    sim::DimmTrace dimm;
    dimm.id = id;
    dimm.platform = fleet.platform;
    const int per_tick =
        id % 8 == 0 ? 200 + static_cast<int>(rng.uniform_u64(201)) : 1;
    for (SimTime t = start; t <= end; t += cadence) {
      const SimTime tick_begin = t - cadence + 1;
      std::vector<SimTime> times(static_cast<std::size_t>(per_tick));
      for (SimTime& time : times) {
        time = tick_begin + static_cast<SimTime>(
                                rng.uniform_u64(static_cast<std::uint64_t>(
                                    cadence - 1)));
      }
      std::sort(times.begin(), times.end());
      for (const SimTime time : times) {
        dram::CeEvent ce;
        ce.time = time;
        ce.coord.bank = static_cast<int>(rng.uniform_u64(16));
        ce.coord.row = static_cast<int>(rng.uniform_u64(4096));
        ce.coord.column = static_cast<int>(rng.uniform_u64(128));
        ce.pattern.add({static_cast<std::uint8_t>(rng.uniform_u64(8)), 0});
        dimm.ces.push_back(ce);
      }
    }
    fleet.dimms.push_back(std::move(dimm));
  }
  return fleet;
}

ServeInputs storm_inputs(const RunOptions& options) {
  ServeInputs in;
  train_k920_model(options, in);
  in.threshold = 2.0;  // above any score: every stream serves to the end
  in.start = days(6);
  in.end = days(16);
  in.cadence = hours(6);
  in.fleet = storm_fleet(derive_seed(options.seed, 5), kStormDimms, in.start,
                         in.end, in.cadence);
  in.config.admission.enabled = true;
  in.config.admission.tokens_per_tick = 16.0;
  in.config.admission.bucket_capacity = 128.0;
  in.config.admission.degraded_stride = 4;
  in.config.admission.shard_overload_events = 720;
  return in;
}

void finish_config(const RunOptions& options, ServeInputs& in,
                   std::size_t streams_per_shard) {
  in.config.shards = std::max<std::size_t>(
      1, (in.fleet.dimms.size() + streams_per_shard - 1) / streams_per_shard);
  in.config.num_threads = options.threads;
  in.config.now_ns = now_ns;
}

struct Pass {
  mlops::ServingStats stats;
  std::vector<std::pair<dram::DimmId, SimTime>> first_alarms;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
};

// One closed-loop replay on fresh alarm/monitoring state.
Pass serve(const ServeInputs& in, const mlops::ServingConfig& config,
           bool reference) {
  const mlops::FeatureStore store;
  mlops::AlarmSystem alarms;
  mlops::Monitoring monitoring;
  mlops::ServingEngine engine(*in.model, in.threshold, store, alarms,
                              monitoring, config);
  Pass pass;
  const Stopwatch watch;
  pass.stats = reference
                   ? engine.run_reference(in.fleet, in.start, in.end, in.cadence)
                   : engine.run_over(in.fleet, in.start, in.end, in.cadence);
  pass.seconds = watch.wall_s();
  pass.cpu_seconds = watch.cpu_s();
  for (const mlops::Alarm& alarm : alarms.alarms()) {
    pass.first_alarms.emplace_back(alarm.dimm, alarm.time);
  }
  return pass;
}

std::string hashes(const mlops::ServingStats& s) {
  return "score " + hex(s.score_hash) + " alarm " + hex(s.alarm_hash);
}

bool same_hashes(const mlops::ServingStats& a, const mlops::ServingStats& b) {
  return a.score_hash == b.score_hash && a.alarm_hash == b.alarm_hash &&
         a.scored == b.scored;
}

std::vector<double> tick_latencies_ms(const mlops::ServingStats& s) {
  std::vector<double> ms;
  for (const std::uint64_t ns : s.tick_latencies_ns) {
    ms.push_back(static_cast<double>(ns) / 1e6);
  }
  return ms;
}

std::uint64_t events(const mlops::ServingStats& s) {
  return s.ingested_ces + s.ingested_events;
}

Result measure(const RunOptions& options, bool storm) {
  Result result;
  ServeInputs in;
  EndToEnd e2e;
  e2e.setup_s = median_setup_cpu_seconds(kSetups, [&] {
    in = storm ? storm_inputs(options) : steady_inputs(options);
    finish_config(options, in,
                  storm ? kStormStreamsPerShard : kSteadyStreamsPerShard);
  });

  std::vector<mlops::ServingStats> runs;
  std::vector<double> rss_mb;
  bool rss_isolated = true;
  e2e.pass_seconds = timed_passes(options.seconds, 3, [&] {
    rss_isolated = reset_peak_rss() && rss_isolated;
    Pass pass = serve(in, in.config, false);
    rss_mb.push_back(peak_rss_mb());
    e2e.pass_cpu_seconds.push_back(pass.cpu_seconds);
    runs.push_back(std::move(pass.stats));
    return pass.seconds;
  });
  e2e.peak_rss_mb = median(rss_mb);

  // Oracles, outside the timed region.
  const mlops::ServingStats& first = runs.front();
  std::uint64_t scored = 0, shed = 0;
  for (const mlops::ServingStats& run : runs) {
    scored += run.scored;
    shed += run.shed_scores;
    e2e.latencies_ms.push_back(tick_latencies_ms(run));
    if (!same_hashes(run, first)) {
      result.failed += run.scored + run.shed_scores;
      result.fail("run_over hashes differ between passes: " + hashes(run) +
                  " vs " + hashes(first));
    }
  }
  result.attempted = scored + shed;
  mlops::ServingConfig unshed = in.config;
  unshed.admission.enabled = false;
  const Pass reference = serve(in, unshed, true);
  const Pass engine = storm ? serve(in, unshed, false) : Pass{first, {}, 0, 0};
  if (!same_hashes(engine.stats, reference.stats)) {
    result.fail("run_over " + hashes(engine.stats) +
                " != run_reference " + hashes(reference.stats));
  }

  e2e.events = events(first);
  e2e.served_ratio = static_cast<double>(scored) /
                     static_cast<double>(std::max<std::uint64_t>(1, scored + shed));
  report_end_to_end(e2e, result);
  result.notes.push_back(
      std::string(storm ? "serve-storm" : "serve-steady") + ": " +
      std::to_string(first.dimms) + " streams in " +
      std::to_string(in.config.shards) + " shards, " +
      std::to_string(events(first)) + " events, " +
      std::to_string(first.scored) + " scored, " +
      std::to_string(first.shed_scores) + " shed, " +
      std::to_string(first.alarms) + " alarms per pass; " +
      std::to_string(runs.size()) + " passes; " + hashes(first));
  if (!rss_isolated) result.notes.push_back(kRssNotIsolated);
  return result;
}

// Replays the serving ticks of every stream through FeatureStore streams
// (open_stream / observe_* / features_at), one task per serving shard like
// the engine, stopping a stream at its UE or after its first alarm tick.
// Rows land in 64-row blocks for the predict replay.
std::vector<std::vector<ml::Matrix>> replay_streams(
    const ServeInputs& in, const std::vector<std::pair<dram::DimmId, SimTime>>&
                               first_alarms) {
  const mlops::FeatureStore store;
  const std::size_t n = in.fleet.dimms.size();
  // First alarm time per fleet index (DIMM ids are sparse planned ids).
  std::vector<SimTime> alarm_at(n, in.end + 1);
  for (const auto& [dimm, time] : first_alarms) {
    const auto it = std::lower_bound(
        in.fleet.dimms.begin(), in.fleet.dimms.end(), dimm,
        [](const sim::DimmTrace& d, dram::DimmId id) { return d.id < id; });
    if (it == in.fleet.dimms.end() || it->id != dimm) continue;
    SimTime& at = alarm_at[static_cast<std::size_t>(it - in.fleet.dimms.begin())];
    at = std::min(at, time);
  }
  const std::size_t shards = in.config.shards;
  std::vector<std::vector<ml::Matrix>> blocks(shards);
  ThreadPool::global().parallel_for(
      shards,
      [&](std::size_t s) {
        std::vector<float> row;
        std::vector<ml::Matrix>& out = blocks[s];
        for (std::size_t d = s * n / shards; d < (s + 1) * n / shards; ++d) {
          const sim::DimmTrace& dimm = in.fleet.dimms[d];
          if (dimm.ces.empty()) continue;
          features::OnlineExtractorState stream = store.open_stream(dimm);
          std::size_t next_ce = 0, next_event = 0;
          for (SimTime t = in.start; t <= in.end; t += in.cadence) {
            if (dimm.ue && t >= dimm.ue->time) break;
            while (next_ce < dimm.ces.size() && dimm.ces[next_ce].time <= t) {
              stream.observe_ce(dimm.ces[next_ce++]);
            }
            while (next_event < dimm.events.size() &&
                   dimm.events[next_event].time <= t) {
              stream.observe_event(dimm.events[next_event++]);
            }
            stream.features_at(t, row);
            if (!row.empty()) {
              if (out.empty() || out.back().rows() == 64) out.emplace_back();
              out.back().push_row(row);
            }
            if (t >= alarm_at[d]) break;
          }
        }
      },
      1);
  return blocks;
}

Result traced(const RunOptions& options, bool storm) {
  const std::string name = storm ? "serve-storm" : "serve-steady";
  Result result;
  ServeInputs in = storm ? storm_inputs(options) : steady_inputs(options);
  finish_config(options, in,
                storm ? kStormStreamsPerShard : kSteadyStreamsPerShard);
  ThreadPool::ScopedLimit limit(options.threads);
  const double third = options.seconds / 3.0;

  std::vector<Pass> passes;
  const std::vector<double> engine_s = timed_passes(third, 2, [&] {
    passes.push_back(serve(in, in.config, false));
    return passes.back().seconds;
  });
  const mlops::ServingStats& stats = passes.front().stats;
  for (const Pass& pass : passes) {
    result.attempted += pass.stats.scored + pass.stats.shed_scores;
    if (!same_hashes(pass.stats, stats)) {
      result.failed += pass.stats.scored + pass.stats.shed_scores;
      result.fail("run_over hashes differ between passes");
    }
  }

  std::vector<std::vector<ml::Matrix>> blocks;
  const std::vector<double> stream_s = timed_passes(third, 2, [&] {
    const std::uint64_t start = now_ns();
    blocks = replay_streams(in, passes.front().first_alarms);
    return seconds_since(start);
  });
  const std::vector<double> predict_s = timed_passes(third, 2, [&] {
    const std::uint64_t start = now_ns();
    ThreadPool::global().parallel_for(
        blocks.size(),
        [&](std::size_t s) {
          for (const ml::Matrix& block : blocks[s]) {
            in.model->predict_batch(block);
          }
        },
        1);
    return seconds_since(start);
  });

  PerLayer p;
  p.serving_batch_fill =
      static_cast<double>(stats.scored) /
      static_cast<double>(std::max<std::uint64_t>(1, stats.batches) *
                          in.config.batch_rows);
  p.serving_queue_stalls = static_cast<double>(stats.queue_stalls);
  p.serving_peak_queue_depth = static_cast<double>(stats.peak_queue_depth);
  p.features_stream_s = median(stream_s);
  p.ml_predict_s = median(predict_s);
  p.admission_shed_scores = static_cast<double>(stats.shed_scores);
  p.admission_degraded_dimms = static_cast<double>(stats.degraded_dimms);
  p.admission_overload_ticks = static_cast<double>(stats.overload_ticks);
  report_per_layer(p, result);

  std::uint64_t rows = 0;
  for (const auto& shard : blocks) {
    for (const ml::Matrix& block : shard) rows += block.rows();
  }
  result.notes.push_back(name + " traced: run_over " +
                         std::to_string(median(engine_s)) + " s; replay " +
                         std::to_string(rows) + " rows (engine scored " +
                         std::to_string(stats.scored) + " in " +
                         std::to_string(stats.batches) + " batches)");
  return result;
}

}  // namespace

Result run_serve_steady(const RunOptions& options) {
  return options.trace ? traced(options, false) : measure(options, false);
}

Result run_serve_storm(const RunOptions& options) {
  return options.trace ? traced(options, true) : measure(options, true);
}

}  // namespace memfp::perfbench
