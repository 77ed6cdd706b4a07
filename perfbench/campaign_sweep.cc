// campaign-sweep: core::CampaignEngine::run over the 48-point spec (Purley
// and Whitley × platform and SEC-DED ECC × 2 predictors × 6 policies) with
// shared stages and a cold cache every sweep. The only workload with model
// training and the stage cache on the measured path. Oracle: campaign_hash
// equals the share_stages=false path. The fleets are fixed; the workload
// seed moves the train/validation/test split: a pass sweeps the spec under
// several splits derived from it.
//
// The traced run splits a cold sweep by difference: reruns on the same
// engine that each miss only the intended stages (StageCounters prove it)
// give policy, train + score, and extract; the rest of the cold sweep is
// simulate.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "sim/fleet.h"
#include "sim/trace_store.h"
#include "sim/scenario.h"
#include "workloads.h"

namespace memfp::perfbench {

core::CampaignSpec campaign_spec(std::uint64_t seed, double fleet_scale) {
  core::CampaignSpec spec;
  spec.name = "bench-sweep";
  spec.sampling.seed += seed;

  core::ScenarioSpec purley;
  purley.name = "purley";
  purley.params = sim::purley_scenario(/*seed=*/21).scaled(0.12 * fleet_scale);
  spec.scenarios.push_back(purley);
  core::ScenarioSpec whitley;
  whitley.name = "whitley";
  whitley.params =
      sim::whitley_scenario(/*seed=*/22).scaled(0.12 * fleet_scale);
  spec.scenarios.push_back(whitley);

  core::EccSpec platform_ecc;
  platform_ecc.name = "platform";
  spec.eccs.push_back(platform_ecc);
  core::EccSpec secded;
  secded.name = "sec-ded";
  secded.ecc = dram::EccChoice::kSecDed;
  spec.eccs.push_back(secded);

  core::PredictorSpec gbdt;
  gbdt.name = "gbdt";
  spec.predictors.push_back(gbdt);
  core::PredictorSpec gbdt_short;
  gbdt_short.name = "gbdt-short";
  gbdt_short.windows.observation = days(3);
  gbdt_short.windows.prediction = days(15);
  gbdt_short.train_seed = 29;
  spec.predictors.push_back(gbdt_short);

  core::PolicySpec tuned;
  tuned.name = "tuned";
  spec.policies.push_back(tuned);
  core::PolicySpec eager;
  eager.name = "eager-0.8";
  eager.tuned_scale = 0.8;
  spec.policies.push_back(eager);
  core::PolicySpec cautious;
  cautious.name = "cautious-1.2";
  cautious.tuned_scale = 1.2;
  spec.policies.push_back(cautious);
  for (const double threshold : {0.3, 0.5, 0.9}) {
    core::PolicySpec fixed;
    char name[32];
    std::snprintf(name, sizeof name, "fixed-%.1f", threshold);
    fixed.name = name;
    fixed.mode = core::PolicySpec::Threshold::kFixed;
    fixed.fixed_threshold = threshold;
    fixed.prediction_guided_offlining = threshold < 0.9;
    spec.policies.push_back(fixed);
  }
  return spec;
}

namespace {

// The split moves the cost of a sweep by about a tenth from one seed to the
// next (extract, train and score see different DIMMs). A pass sweeps the
// spec under kSplits splits derived from the workload seed, each on a cold
// engine, and reports the mean per sweep, which averages that out.
constexpr int kSplits = 3;
// Half the bench's fleets, for a shorter pass and a cheaper
// share_stages=false oracle.
constexpr double kFleetScale = 0.5;
// Building the specs takes microseconds: each set-up sample builds them
// kSpecBuilds times, and setup_s is the median of kSetups samples per build.
constexpr int kSetups = 11;
constexpr int kSpecBuilds = 100;

core::CampaignConfig engine_config(const RunOptions& options,
                                   const std::string& name, bool share) {
  core::CampaignConfig config;
  config.store_dir = options.work_dir + "/" + name;
  config.num_threads = options.threads;
  config.share_stages = share;
  return config;
}

// Telemetry records (CE + memory event + UE) in the trace shards an engine
// has spilled under `store_dir`: what its sweep simulated and pushed
// through, for events_per_s. The engine keeps its shards until it is
// destroyed, so this reads them after the timed region.
std::uint64_t spilled_events(const std::string& store_dir) {
  std::uint64_t events = 0;
  for (const auto& entry : std::filesystem::directory_iterator(store_dir)) {
    if (!entry.is_directory()) continue;
    for (const std::string& path : sim::list_shards(entry.path().string())) {
      const sim::TraceReader reader(path);
      for (std::size_t i = 0; i < reader.dimm_count(); ++i) {
        const sim::DimmTrace dimm = reader.read_dimm(i);
        events += dimm.ces.size() + dimm.events.size() + (dimm.ue ? 1 : 0);
      }
    }
  }
  return events;
}

std::vector<core::CampaignSpec> split_specs(std::uint64_t seed) {
  std::vector<core::CampaignSpec> specs;
  for (int k = 0; k < kSplits; ++k) {
    specs.push_back(campaign_spec(derive_seed(seed, 10 + k), kFleetScale));
  }
  return specs;
}

Result measure(const RunOptions& options) {
  Result result;
  std::vector<core::CampaignSpec> specs;
  EndToEnd e2e;
  // Set-up only builds the specs: the sweeps simulate their own fleets.
  e2e.setup_s = median_setup_cpu_seconds(kSetups, [&] {
                  for (int i = 0; i < kSpecBuilds; ++i) {
                    specs = split_specs(options.seed);
                  }
                }) /
                kSpecBuilds;

  // hashes[pass][split]
  std::vector<std::vector<std::uint64_t>> hashes;
  std::vector<double> rss_mb;
  bool rss_isolated = true;
  e2e.pass_seconds = timed_passes(options.seconds, 3, [&] {
    hashes.emplace_back();
    double wall_s = 0.0, cpu_s = 0.0;
    rss_isolated = reset_peak_rss() && rss_isolated;
    for (int k = 0; k < kSplits; ++k) {
      const core::CampaignConfig config = engine_config(
          options,
          "pass-" + std::to_string(hashes.size()) + "-" + std::to_string(k),
          true);
      core::CampaignEngine engine(config);
      const Stopwatch watch;
      hashes.back().push_back(engine.run(specs[k]).campaign_hash);
      wall_s += watch.wall_s();
      cpu_s += watch.cpu_s();
      // Every split sweeps the same fleets, so one count serves them all.
      if (e2e.events == 0) e2e.events = spilled_events(config.store_dir);
    }
    rss_mb.push_back(peak_rss_mb());
    e2e.pass_cpu_seconds.push_back(cpu_s / kSplits);
    return wall_s / kSplits;
  });

  // Oracles, outside the timed region.
  const std::size_t points = specs.front().points();
  result.attempted = points * kSplits * hashes.size();
  for (const std::vector<std::uint64_t>& pass : hashes) {
    if (pass != hashes.front()) {
      result.failed += points * kSplits;
      result.fail("campaign hashes differ between passes");
    }
  }
  std::string folded;
  for (int k = 0; k < kSplits; ++k) {
    core::CampaignEngine naive(
        engine_config(options, "naive-" + std::to_string(k), false));
    const std::uint64_t oracle = naive.run(specs[k]).campaign_hash;
    if (oracle != hashes.front()[k]) {
      result.fail("shared campaign_hash " + hex(hashes.front()[k]) +
                  " != share_stages=false " + hex(oracle) + " on split " +
                  std::to_string(k));
    }
    folded += ' ';
    folded += hex(hashes.front()[k]);
  }

  e2e.peak_rss_mb = median(rss_mb);
  e2e.latencies_ms = batch_latencies_ms(e2e.pass_seconds);
  report_end_to_end(e2e, result);
  result.notes.push_back(
      "campaign-sweep: " + std::to_string(points) + " points, " +
      std::to_string(e2e.events) + " simulated events a sweep, " +
      std::to_string(hashes.size()) + " passes of " +
      std::to_string(kSplits) + " cold sweeps; campaign_hash per split" +
      folded);
  if (!rss_isolated) result.notes.push_back(kRssNotIsolated);
  return result;
}

struct Rerun {
  core::CampaignRunStats stats;
  double seconds = 0.0;
};

Rerun run_timed(core::CampaignEngine& engine, const core::CampaignSpec& spec) {
  const std::uint64_t start = now_ns();
  Rerun r;
  r.stats = engine.run(spec).stats;
  r.seconds = seconds_since(start);
  return r;
}

std::string counters(const core::CampaignRunStats& s) {
  const auto one = [](const char* name, const core::StageCounters& c) {
    return std::string(name) + " " + std::to_string(c.misses) + " miss/" +
           std::to_string(c.hits) + " hit";
  };
  return one("simulate", s.simulate) + ", " + one("extract", s.extract) +
         ", " + one("train", s.train) + ", " + one("score", s.score);
}

double hit_ratio(const core::StageCounters& c) {
  const std::uint64_t total = c.hits + c.misses;
  return total == 0 ? 0.0 : static_cast<double>(c.hits) / total;
}

Result traced(const RunOptions& options) {
  Result result;
  const core::CampaignSpec spec = split_specs(options.seed).front();

  // One axis changed per rerun; everything upstream of it must hit.
  core::CampaignSpec policy_nudge = spec;
  for (core::PolicySpec& policy : policy_nudge.policies) {
    policy.tuned_scale *= 1.01;
    policy.fixed_threshold += 0.01;
  }
  core::CampaignSpec new_train_seed = spec;
  for (core::PredictorSpec& predictor : new_train_seed.predictors) {
    predictor.train_seed += 1000;
  }
  core::CampaignSpec new_observation = spec;
  for (core::PredictorSpec& predictor : new_observation.predictors) {
    predictor.windows.observation += days(1);
  }
  const std::size_t pipelines = spec.scenarios.size() * spec.eccs.size() *
                                spec.predictors.size();

  std::vector<double> simulate_s, extract_s, train_score_s, policy_s;
  core::CampaignRunStats cold_stats;
  int pass = 0;
  timed_passes(options.seconds, 1, [&] {
    core::CampaignEngine engine(
        engine_config(options, "traced-" + std::to_string(pass++), true));
    const std::uint64_t start = now_ns();
    const Rerun cold = run_timed(engine, spec);
    const Rerun policy = run_timed(engine, policy_nudge);
    const Rerun train = run_timed(engine, new_train_seed);
    const Rerun extract = run_timed(engine, new_observation);
    const auto expect = [&](const Rerun& r, const char* what,
                            std::uint64_t extract_misses,
                            std::uint64_t train_misses) {
      const bool ok = r.stats.simulate.misses == 0 &&
                      r.stats.extract.misses == extract_misses &&
                      r.stats.train.misses == train_misses &&
                      r.stats.score.misses == train_misses;
      if (!ok) result.fail(std::string(what) + " rerun missed " + counters(r.stats));
    };
    expect(policy, "policy-nudge", 0, 0);
    expect(train, "train-seed", 0, pipelines);
    expect(extract, "observation-window", pipelines, pipelines);
    result.attempted += 4 * spec.points();
    cold_stats = cold.stats;
    simulate_s.push_back(cold.seconds - extract.seconds);
    extract_s.push_back(extract.seconds - train.seconds);
    train_score_s.push_back(train.seconds - policy.seconds);
    policy_s.push_back(policy.seconds);
    return seconds_since(start);
  });

  PerLayer p;
  p.campaign_simulate_s = median(simulate_s);
  p.campaign_extract_s = median(extract_s);
  p.campaign_train_score_s = median(train_score_s);
  p.campaign_policy_s = median(policy_s);
  p.stage_cache_simulate_hit_ratio = hit_ratio(cold_stats.simulate);
  p.stage_cache_extract_hit_ratio = hit_ratio(cold_stats.extract);
  p.stage_cache_train_hit_ratio = hit_ratio(cold_stats.train);
  p.stage_cache_score_hit_ratio = hit_ratio(cold_stats.score);
  report_per_layer(p, result);
  result.notes.push_back("campaign-sweep traced: " +
                         std::to_string(simulate_s.size()) +
                         " cold sweeps + 3 reruns each; cold " +
                         counters(cold_stats));
  return result;
}

}  // namespace

Result run_campaign_sweep(const RunOptions& options) {
  return options.trace ? traced(options) : measure(options);
}

}  // namespace memfp::perfbench
