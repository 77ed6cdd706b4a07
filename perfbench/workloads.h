// The benchmark's four workloads and the helpers they share. Each workload
// builds its inputs from the seed (set-up), measures for the requested
// seconds, checks its outputs against memfp's own oracles outside the timed
// region, and reports the end-to-end metrics; with `trace` it instead times
// the calls into each layer and reports per-layer metrics. See
// perfbench/README.md for the workload → layer → metric map.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "harness.h"

namespace memfp::perfbench {

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;
  /// Scratch directory inside the checkout for shard spills.
  std::string work_dir;
};

Result run_fleet_batch(const RunOptions& options);
Result run_serve_steady(const RunOptions& options);
Result run_serve_storm(const RunOptions& options);
Result run_campaign_sweep(const RunOptions& options);

/// The 48-point spec of bench/bench_campaign.cc (Purley and Whitley ×
/// platform and SEC-DED ECC × 2 predictors × 6 policies) with its fleets
/// scaled by `fleet_scale` and its split seed moved by `seed`. At seed 0 and
/// fleet_scale 1 it is the bench's spec, whose campaign_hash is
/// kBenchCampaignHash.
core::CampaignSpec campaign_spec(std::uint64_t seed, double fleet_scale);
inline constexpr std::uint64_t kBenchCampaignHash = 0x23d9b09a31e56c00ULL;

/// Deterministic per-purpose seed from the workload seed (splitmix64), so
/// one --seed fans out into independent fleet and storm seeds.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Runs `setup` `times` times and returns the median CPU seconds it took:
/// work moved into set-up shows, and host steal does not. The caller keeps
/// whatever the last call built.
template <typename Setup>
double median_setup_cpu_seconds(int times, Setup&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    const Stopwatch watch;
    setup();
    seconds.push_back(watch.cpu_s());
  }
  return median(std::move(seconds));
}

/// Calls `pass()` (which returns its own timed seconds) until `budget`
/// seconds of wall time have gone by and at least `min_passes` ran; returns
/// every pass's seconds.
template <typename Pass>
std::vector<double> timed_passes(double budget, int min_passes, Pass&& pass) {
  std::vector<double> seconds;
  const std::uint64_t start = now_ns();
  while (static_cast<int>(seconds.size()) < min_passes ||
         seconds_since(start) < budget) {
    seconds.push_back(pass());
  }
  return seconds;
}

/// Peak RSS in MB since the last reset_peak_rss(). Workloads reset it
/// before each timed pass and report the median pass peak: the resident
/// inputs plus one pass's working set, never set-up's or another pass's.
inline double peak_rss_mb() {
  return static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
}

inline constexpr char kRssNotIsolated[] =
    "peak RSS not reset per pass (clear_refs refused): it is the process "
    "peak, set-up included";

/// What a workload measured, for report_end_to_end to turn into the
/// end-to-end metrics of BENCHMARK.json. `latencies_ms` holds one pass's
/// response-latency samples per pass: the cohort ticks of a serving replay,
/// or the single response of a batch pass.
struct EndToEnd {
  /// Telemetry records one pass pushes through.
  std::uint64_t events = 0;
  /// Wall and CPU seconds of each timed pass.
  std::vector<double> pass_seconds;
  std::vector<double> pass_cpu_seconds;
  std::vector<std::vector<double>> latencies_ms;
  double served_ratio = 1.0;
  double peak_rss_mb = 0.0;
  double setup_s = 0.0;
};
void report_end_to_end(const EndToEnd& e2e, Result& result);

/// Response latencies of batch passes: a batch workload answers once per
/// pass, so each pass's sample is the pass itself.
inline std::vector<std::vector<double>> batch_latencies_ms(
    const std::vector<double>& pass_seconds) {
  std::vector<std::vector<double>> latencies;
  for (const double s : pass_seconds) latencies.push_back({s * 1e3});
  return latencies;
}

/// Every per-layer metric of BENCHMARK.json, zero-initialised: a workload
/// sets the layers it drives, and a layer it bypasses reads 0.
struct PerLayer {
  double sim_simulate_s = 0.0;
  double sim_cpu_util = 0.0;
  double trace_store_encode_s = 0.0;
  double trace_store_open_s = 0.0;
  double trace_store_decode_s = 0.0;
  double trace_store_bytes_per_event = 0.0;
  double features_extract_s = 0.0;
  double features_cpu_util = 0.0;
  double features_stream_s = 0.0;
  double core_assemble_s = 0.0;
  double ml_predict_s = 0.0;
  double fleet_self_s = 0.0;
  double trace_overhead_s = 0.0;
  double serving_batch_fill = 0.0;
  double serving_queue_stalls = 0.0;
  double serving_peak_queue_depth = 0.0;
  double admission_shed_scores = 0.0;
  double admission_degraded_dimms = 0.0;
  double admission_overload_ticks = 0.0;
  double campaign_simulate_s = 0.0;
  double campaign_extract_s = 0.0;
  double campaign_train_score_s = 0.0;
  double campaign_policy_s = 0.0;
  double stage_cache_simulate_hit_ratio = 0.0;
  double stage_cache_extract_hit_ratio = 0.0;
  double stage_cache_train_hit_ratio = 0.0;
  double stage_cache_score_hit_ratio = 0.0;
};
void report_per_layer(const PerLayer& layers, Result& result);

}  // namespace memfp::perfbench
