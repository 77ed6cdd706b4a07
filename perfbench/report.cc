// The end-to-end and per-layer metric lists, in BENCHMARK.json order.
#include <cstdio>
#include <string>
#include <vector>

#include "workloads.h"

namespace memfp::perfbench {

namespace {

// Median of the per-pass nearest-rank percentile `p`, so one disturbed pass
// cannot set the figure.
double median_percentile(const std::vector<std::vector<double>>& passes,
                         double p) {
  std::vector<double> per_pass;
  for (const std::vector<double>& pass : passes) {
    per_pass.push_back(percentile(pass, p));
  }
  return median(std::move(per_pass));
}

}  // namespace

void report_end_to_end(const EndToEnd& e2e, Result& result) {
  const double sweep_s = median(e2e.pass_seconds);
  result.add("events_per_s", static_cast<double>(e2e.events) / sweep_s, "1/s");
  result.add("sweep_s", sweep_s, "s");
  result.add("latency_p50_ms", median_percentile(e2e.latencies_ms, 50.0),
             "ms");
  result.add("latency_p99_ms", median_percentile(e2e.latencies_ms, 99.0),
             "ms");
  result.add("cpu_s", median(e2e.pass_cpu_seconds), "s");
  result.add("served_ratio", e2e.served_ratio, "ratio");
  result.add("peak_rss_mb", e2e.peak_rss_mb, "MB");
  result.add("setup_s", e2e.setup_s, "s");

  char note[240];
  std::vector<double> pooled;
  for (const std::vector<double>& pass : e2e.latencies_ms) {
    pooled.insert(pooled.end(), pass.begin(), pass.end());
  }
  const Summary all = summarize(pooled);
  const std::size_t per_pass =
      e2e.latencies_ms.empty() ? 0 : e2e.latencies_ms.front().size();
  std::snprintf(note, sizeof note,
                "latency: %zu samples over %zu passes (%zu in the first); "
                "pooled p50 %.6g ms, p%g %.6g ms (highest percentile with "
                ">= 10 samples beyond)",
                all.count, e2e.latencies_ms.size(), per_pass, all.p50,
                all.tail_percentile, all.tail);
  result.notes.push_back(note);
  std::string passes = "passes (wall/cpu s):";
  for (std::size_t i = 0; i < e2e.pass_seconds.size(); ++i) {
    std::snprintf(note, sizeof note, " %.3f/%.3f", e2e.pass_seconds[i],
                  e2e.pass_cpu_seconds[i]);
    passes += note;
  }
  result.notes.push_back(passes);
}

void report_per_layer(const PerLayer& p, Result& result) {
  result.add("sim.simulate_s", p.sim_simulate_s, "s");
  result.add("sim.cpu_util", p.sim_cpu_util, "ratio");
  result.add("trace_store.encode_s", p.trace_store_encode_s, "s");
  result.add("trace_store.open_s", p.trace_store_open_s, "s");
  result.add("trace_store.decode_s", p.trace_store_decode_s, "s");
  result.add("trace_store.bytes_per_event", p.trace_store_bytes_per_event,
             "B");
  result.add("features.extract_s", p.features_extract_s, "s");
  result.add("features.cpu_util", p.features_cpu_util, "ratio");
  result.add("features.stream_s", p.features_stream_s, "s");
  result.add("core.assemble_s", p.core_assemble_s, "s");
  result.add("ml.predict_s", p.ml_predict_s, "s");
  result.add("fleet.self_s", p.fleet_self_s, "s");
  result.add("trace.overhead_s", p.trace_overhead_s, "s");
  result.add("serving.batch_fill", p.serving_batch_fill, "ratio");
  result.add("serving.queue_stalls", p.serving_queue_stalls, "count");
  result.add("serving.peak_queue_depth", p.serving_peak_queue_depth, "count");
  result.add("admission.shed_scores", p.admission_shed_scores, "count");
  result.add("admission.degraded_dimms", p.admission_degraded_dimms, "count");
  result.add("admission.overload_ticks", p.admission_overload_ticks, "count");
  result.add("campaign.simulate_s", p.campaign_simulate_s, "s");
  result.add("campaign.extract_s", p.campaign_extract_s, "s");
  result.add("campaign.train_score_s", p.campaign_train_score_s, "s");
  result.add("campaign.policy_s", p.campaign_policy_s, "s");
  result.add("stage_cache.simulate.hit_ratio",
             p.stage_cache_simulate_hit_ratio, "ratio");
  result.add("stage_cache.extract.hit_ratio", p.stage_cache_extract_hit_ratio,
             "ratio");
  result.add("stage_cache.train.hit_ratio", p.stage_cache_train_hit_ratio,
             "ratio");
  result.add("stage_cache.score.hit_ratio", p.stage_cache_score_hit_ratio,
             "ratio");
}

}  // namespace memfp::perfbench
