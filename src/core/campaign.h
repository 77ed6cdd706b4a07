// Campaign engine (ROADMAP item 5): sweeps the cross-product of
// scenario/fault-mix × ECC scheme × predictor × alarm/offlining policy and
// produces the repo's first policy-level results — per-point confusion,
// realized VIRR, mitigation accounting, page-offline prevention, and a
// root-cause attribution table per fault class.
//
// The engine plans each config point's stage DAG
//
//   simulate (fleet → trace-store shards)      key: scenario × ECC
//   extract  (shards → feature partitions)     key: + windows × sampling
//   train    (train partition → fitted model)  key: + algorithm × seed
//   score    (model × eval partitions → per-DIMM score streams + threshold)
//   policy   (score streams × policy → results; never cached, always cheap)
//
// and executes it through the content-addressed StageCache: an N-point sweep
// simulates each distinct (scenario, ECC) once, extracts each distinct
// (trace, window-config) once, and the alarm-threshold/policy axis collapses
// to one vectorized multi-threshold sweep over the cached score streams
// (SoA arrays, one pass per score artifact) instead of per-threshold
// replays. Cached and uncached paths are byte-identical — the campaign hash
// folds every point's result and must not depend on sharing, thread count,
// or visit order (tests/test_campaign.cc).
//
// Lives in core because it stitches sim + features + ml + mlops policy
// accounting into one driver; mlops is used header-only (MitigationPolicy,
// account_confusion), so no core → mlops link edge exists.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluation.h"
#include "core/fault_analysis.h"
#include "core/pipeline.h"
#include "core/stage_cache.h"
#include "core/stages.h"
#include "features/windows.h"
#include "ml/metrics.h"
#include "mlops/alarm.h"
#include "sim/dimm_sim.h"
#include "sim/page_offline.h"
#include "sim/scenario.h"

namespace memfp::core {

// ---------------------------------------------------------------------------
// Campaign spec: the four sweep axes
// ---------------------------------------------------------------------------

struct ScenarioSpec {
  std::string name;
  sim::ScenarioParams params;
};

/// ECC axis entry. The BMC logging policy rides this axis too: both describe
/// the platform's error-reporting stack, and both invalidate the simulated
/// fleet when perturbed.
struct EccSpec {
  std::string name = "platform";
  dram::EccChoice ecc = dram::EccChoice::kPlatform;
  sim::BmcPolicy bmc;
};

/// Predictor axis entry: model family + window/cadence config + train seed.
struct PredictorSpec {
  std::string name = "gbdt";
  Algorithm algorithm = Algorithm::kLightGbm;
  features::PredictionWindows windows;
  SimDuration eval_cadence = days(2);
  std::uint64_t train_seed = 17;
};

/// Alarm/offlining policy axis entry. Policies are evaluated from cached
/// score streams — adding policy points costs one threshold column in the
/// vectorized sweep, never a re-simulation or re-train.
struct PolicySpec {
  std::string name = "tuned";
  enum class Threshold { kTunedF1, kFixed };
  Threshold mode = Threshold::kTunedF1;
  /// Threshold value when mode == kFixed.
  double fixed_threshold = 0.5;
  /// Multiplier on the tuned threshold when mode == kTunedF1 (sensitivity
  /// sweeps around the validation optimum).
  double tuned_scale = 1.0;
  /// Retire the hottest rows of a DIMM at alarm time (prediction-guided
  /// page offlining) in addition to the reactive policy.
  bool prediction_guided_offlining = true;
  sim::PageOfflinePolicy offline;
  mlops::MitigationPolicy mitigation;
};

struct CampaignSpec {
  std::string name = "campaign";
  std::vector<ScenarioSpec> scenarios;
  std::vector<EccSpec> eccs;
  std::vector<PredictorSpec> predictors;
  std::vector<PolicySpec> policies;
  /// Split/downsampling parameters shared by every point (not a sweep
  /// axis).
  SamplingConfig sampling;

  std::size_t points() const {
    return scenarios.size() * eccs.size() * predictors.size() *
           policies.size();
  }
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// One evaluated config point. `positive` ground truth at the policy level
/// is *any* UE among evaluated test DIMMs — sudden UEs are included (class
/// kSudden, unreachable by a CE-history predictor), unlike the model-level
/// Experiment protocol which excludes no-CE DIMMs entirely. The attribution
/// table is what makes that legible per fault class.
struct CampaignPointResult {
  std::size_t scenario = 0;
  std::size_t ecc = 0;
  std::size_t predictor = 0;
  std::size_t policy = 0;
  std::string name;  ///< "<scenario>/<ecc>/<predictor>/<policy>"

  double threshold = 0.0;
  ml::Confusion confusion;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  mlops::MitigationReport mitigation;
  sim::FleetOfflineReport offline;
  std::vector<FaultClassAttribution> attribution;

  /// Canonical FNV-1a over every field above — the byte-identity contract
  /// between the shared, naive, cached and re-run paths.
  std::uint64_t result_hash() const;
};

struct CampaignRunStats {
  StageCounters simulate;
  StageCounters extract;
  StageCounters train;
  StageCounters score;
  /// Vectorized multi-threshold passes executed (one per distinct score
  /// artifact in the shared path; one per point in the naive path).
  std::size_t policy_sweeps = 0;
  std::size_t points = 0;
};

struct CampaignResult {
  /// Cross-product order: scenario-major, then ecc, predictor, policy.
  std::vector<CampaignPointResult> points;
  CampaignRunStats stats;
  /// Folded point hashes in cross-product order.
  std::uint64_t campaign_hash = sim::kFnvOffset;
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

struct CampaignConfig {
  /// Spill root for simulate-stage trace shards (one subdirectory per
  /// simulate artifact). Required.
  std::string store_dir;
  /// Thread cap (0 = pool default). Results are byte-identical for every
  /// value.
  int num_threads = 0;
  /// false = the naive per-config pipeline: every point re-runs simulate →
  /// extract → train → score from scratch and evaluates its policy with a
  /// scalar per-threshold replay. Same results, no sharing — the oracle the
  /// tests and perfbench's campaign-sweep check the shared path against.
  bool share_stages = true;
  /// Keep the spilled shard directories after the engine is destroyed.
  bool keep_store = false;
};

class CampaignEngine {
 public:
  explicit CampaignEngine(CampaignConfig config);
  ~CampaignEngine();
  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  /// Runs the sweep. Deterministic in the spec for any num_threads /
  /// share_stages; a second run on the same engine hits the cache end to
  /// end and returns byte-identical results.
  CampaignResult run(const CampaignSpec& spec);

  /// Stage keys exposed for the perturbation tests: which artifacts two
  /// specs share is exactly which keys collide.
  std::uint64_t simulate_key(const ScenarioSpec& scenario,
                             const EccSpec& ecc) const;
  std::uint64_t extract_key(const ScenarioSpec& scenario, const EccSpec& ecc,
                            const PredictorSpec& predictor,
                            const SamplingConfig& sampling) const;
  std::uint64_t train_key(const ScenarioSpec& scenario, const EccSpec& ecc,
                          const PredictorSpec& predictor,
                          const SamplingConfig& sampling) const;

 private:
  struct FleetArtifact;
  struct FeatureArtifact;
  struct ModelArtifact;
  struct ScoreArtifact;

  std::shared_ptr<const FleetArtifact> run_simulate(
      const ScenarioSpec& scenario, const EccSpec& ecc, StageCache& cache);
  std::shared_ptr<const FeatureArtifact> run_extract(
      const ScenarioSpec& scenario, const EccSpec& ecc,
      const PredictorSpec& predictor, const SamplingConfig& sampling,
      StageCache& cache);
  std::shared_ptr<const ModelArtifact> run_train(
      const ScenarioSpec& scenario, const EccSpec& ecc,
      const PredictorSpec& predictor, const SamplingConfig& sampling,
      StageCache& cache);
  std::shared_ptr<const ScoreArtifact> run_score(
      const ScenarioSpec& scenario, const EccSpec& ecc,
      const PredictorSpec& predictor, const SamplingConfig& sampling,
      StageCache& cache);

  /// UE-bearing test DIMMs decoded back from the simulate shards, as
  /// (test stream index, trace) pairs — the page-offline replay input,
  /// loaded once per score artifact and shared across its policies.
  std::vector<std::pair<std::size_t, sim::DimmTrace>> load_ue_test_traces(
      const ScoreArtifact& scored) const;

  CampaignPointResult evaluate_policy(
      const CampaignSpec& spec, std::size_t s, std::size_t e, std::size_t p,
      std::size_t q, const ScoreArtifact& scored, double threshold,
      std::span<const std::optional<SimTime>> alarms,
      const std::vector<std::pair<std::size_t, sim::DimmTrace>>& ue_traces)
      const;

  CampaignConfig config_;
  StageCache cache_;
  std::vector<std::string> owned_dirs_;
};

}  // namespace memfp::core
