// End-to-end prediction pipeline (paper Section VI): fleet telemetry ->
// samples -> per-DIMM split -> model training -> threshold tuning on a
// validation fold -> DIMM-level alarm evaluation on held-out DIMMs.
//
// The pipeline never materializes the full fleet sample set: training rows
// are downsampled per DIMM as they are extracted, and only the validation
// and test DIMMs' eval-cadence rows are kept for scoring.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "core/stages.h"
#include "features/extractor.h"
#include "ml/model.h"
#include "sim/trace.h"

namespace memfp::core {

enum class Algorithm { kRiskyCePattern, kRandomForest, kLightGbm, kFtTransformer };

const char* algorithm_name(Algorithm algorithm);

/// Fresh model instance for an algorithm (kRiskyCePattern is trace-based and
/// handled by the pipeline itself; requesting it here throws).
std::unique_ptr<ml::BinaryClassifier> make_model(Algorithm algorithm);

struct PipelineConfig {
  features::PredictionWindows windows;      ///< training cadence = 1 day
  SimDuration eval_cadence = days(2);       ///< scoring cadence on val/test
  SamplingConfig sampling;
  /// Optional feature-column restriction (ablations); empty = all features.
  /// Every column must be inside the feature schema.
  std::vector<std::size_t> active_features;
  /// Parallelism cap for this experiment's simulation/training/scoring hot
  /// paths: 0 = the pool default (MEMFP_THREADS env var, else
  /// hardware_concurrency()); 1 = the serial fallback. Results are
  /// byte-identical for every value (see DESIGN.md "Threading model").
  int num_threads = 0;
};

/// A fleet prepared for experiments: split decided, training set and the
/// validation/test partitions built.
class Experiment {
 public:
  Experiment(const sim::FleetTrace& fleet, PipelineConfig config);

  /// Trains and evaluates one ML algorithm.
  struct Result {
    std::string algorithm;
    ml::Confusion confusion;
    double threshold = 0.0;
    double precision = 0.0;
    double recall = 0.0;
    double f1 = 0.0;
    double virr = 0.0;
    double sample_pr_auc = 0.0;  ///< pooled test-sample diagnostic
    bool applicable = true;      ///< false renders as "X" (paper Table II)
  };
  Result run(Algorithm algorithm);

  /// Like run(), but also hands back the fitted model (nullptr for the
  /// trace-based rule baseline).
  std::pair<Result, std::unique_ptr<ml::BinaryClassifier>> run_with_model(
      Algorithm algorithm);

  const sim::FleetTrace& fleet() const { return *fleet_; }
  const PipelineConfig& config() const { return config_; }
  const ml::Dataset& train_set() const { return train_set_; }
  std::size_t train_dimm_count() const;
  std::size_t test_dimm_count() const { return test_.dimm.size(); }
  /// The held-out DIMMs' eval-cadence samples, in the layout the campaign
  /// scores (core/stages.h); stream i is test DIMM i.
  const EvalPartition& test_partition() const { return test_; }

 private:
  Result run_risky_baseline();
  /// Fills the confusion-derived fields of `result` from `outcomes`.
  void finish(Result& result,
              const std::vector<AlarmOutcome>& outcomes) const;

  const sim::FleetTrace* fleet_;
  PipelineConfig config_;
  std::vector<DimmRole> roles_;  ///< per fleet DIMM
  ml::Dataset train_set_;
  EvalPartition val_;
  EvalPartition test_;
};

}  // namespace memfp::core
