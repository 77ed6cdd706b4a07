#include "core/pipeline.h"

#include <algorithm>
#include <stdexcept>

#include "baseline/risky_ce_pattern.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "ml/ft_transformer.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"

namespace memfp::core {

const char* algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kRiskyCePattern:
      return "Risky CE Pattern";
    case Algorithm::kRandomForest:
      return "Random forest";
    case Algorithm::kLightGbm:
      return "LightGBM";
    case Algorithm::kFtTransformer:
      return "FT-Transformer";
  }
  return "?";
}

std::unique_ptr<ml::BinaryClassifier> make_model(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kRandomForest:
      return std::make_unique<ml::RandomForest>();
    case Algorithm::kLightGbm:
      return std::make_unique<ml::Gbdt>();
    case Algorithm::kFtTransformer:
      return std::make_unique<ml::FtTransformer>();
    case Algorithm::kRiskyCePattern:
      break;
  }
  throw std::invalid_argument(
      "make_model: Risky CE Pattern is trace-based, not a feature model");
}

namespace {

features::PredictionWindows with_cadence(features::PredictionWindows windows,
                                         SimDuration cadence) {
  windows.cadence = cadence;
  return windows;
}

}  // namespace

Experiment::Experiment(const sim::FleetTrace& fleet, PipelineConfig config)
    : fleet_(&fleet), config_(std::move(config)) {
  const features::FeatureExtractor train_extractor(config_.windows);
  const features::FeatureExtractor eval_extractor(
      with_cadence(config_.windows, config_.eval_cadence));
  const std::size_t width = train_extractor.schema().size();
  for (const std::size_t col : config_.active_features) {
    MEMFP_CHECK_LT(col, width)
        << "PipelineConfig::active_features: column " << col
        << " is outside the " << width << "-column feature schema";
  }

  Rng rng(config_.sampling.seed);
  std::vector<SplitDimm> split;
  for (const sim::DimmTrace& dimm : fleet.dimms) {
    split.push_back({dimm.id, !dimm.ces.empty(), dimm.predictable_ue()});
  }
  roles_ = split_dimm_roles(split, config_.sampling, rng);

  // Sudden-UE DIMMs (no CE) have no predictive data and are excluded
  // (paper Section III).
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < fleet.dimms.size(); ++i) {
    if (roles_[i] != DimmRole::kNoCe) eligible.push_back(i);
  }

  // Extract per DIMM in parallel blocks, then route serially in DIMM
  // order: extraction draws no RNG, so the fan-out cannot disturb
  // sample_rng's draws and the result is the same at any thread count;
  // block-at-a-time keeps peak memory at one block of undownsampled DIMMs.
  SplitPartitions parts;
  Rng sample_rng = rng.fork();
  {
    ThreadPool::ScopedLimit limit(config_.num_threads);
    constexpr std::size_t kExtractBlock = 32;
    std::vector<std::vector<features::Sample>> block(kExtractBlock);
    for (std::size_t begin = 0; begin < eligible.size();
         begin += kExtractBlock) {
      const std::size_t count =
          std::min(kExtractBlock, eligible.size() - begin);
      ThreadPool::global().parallel_for(
          count,
          [&](std::size_t i) {
            const std::size_t d = eligible[begin + i];
            const features::FeatureExtractor& extractor =
                roles_[d] == DimmRole::kTrain ? train_extractor
                                             : eval_extractor;
            block[i] = extractor.extract(fleet.dimms[d], fleet.horizon);
            if (!config_.active_features.empty()) {
              // Ablation: keep only the active feature columns.
              for (features::Sample& sample : block[i]) {
                std::vector<float> row;
                row.reserve(config_.active_features.size());
                for (const std::size_t col : config_.active_features) {
                  row.push_back(sample.features[col]);
                }
                sample.features = std::move(row);
              }
            }
          },
          /*grain=*/1);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t d = eligible[begin + i];
        const sim::DimmTrace& dimm = fleet.dimms[d];
        parts.add(roles_[d], d,
                  {.positive = dimm.predictable_ue(),
                   .ue_time = dimm.ue ? dimm.ue->time : 0,
                   .alarm = std::nullopt},
                  std::move(block[i]), config_.sampling, sample_rng);
        block[i].clear();
      }
    }
  }
  const features::FeatureSchema& schema = train_extractor.schema();
  train_set_ = ml::make_dataset(features::SampleSet{
      config_.active_features.empty() ? schema
                                      : schema.subset(config_.active_features),
      std::move(parts.train)});
  val_ = std::move(parts.val);
  test_ = std::move(parts.test);
  ml::rebalance_weights(train_set_, config_.sampling.positive_weight_share);

  MEMFP_INFO << "experiment " << dram::platform_name(fleet.platform) << ": "
             << train_dimm_count() << " train / " << val_.dimm.size()
             << " val / " << test_.dimm.size() << " test DIMMs, "
             << train_set_.size() << " training rows ("
             << train_set_.positives() << " positive)";
}

std::size_t Experiment::train_dimm_count() const {
  return static_cast<std::size_t>(
      std::count(roles_.begin(), roles_.end(), DimmRole::kTrain));
}

void Experiment::finish(Result& result,
                        const std::vector<AlarmOutcome>& outcomes) const {
  result.confusion = dimm_confusion(outcomes, config_.windows);
  result.precision = result.confusion.precision();
  result.recall = result.confusion.recall();
  result.f1 = result.confusion.f1();
  result.virr = result.confusion.virr();
}

Experiment::Result Experiment::run(Algorithm algorithm) {
  return run_with_model(algorithm).first;
}

std::pair<Experiment::Result, std::unique_ptr<ml::BinaryClassifier>>
Experiment::run_with_model(Algorithm algorithm) {
  if (algorithm == Algorithm::kRiskyCePattern) {
    return {run_risky_baseline(), nullptr};
  }

  Result result;
  result.algorithm = algorithm_name(algorithm);
  // Caps pool width for training and scoring alike; results do not depend
  // on the cap (determinism contract), only wall-clock does.
  ThreadPool::ScopedLimit limit(config_.num_threads);
  Rng rng(config_.sampling.seed ^
          (static_cast<std::uint64_t>(algorithm) + 0x51ed));
  std::unique_ptr<ml::BinaryClassifier> model = make_model(algorithm);
  model->fit(train_set_, rng);

  // Threshold tuned on the validation DIMMs, alarms on the held-out ones.
  const ScoredEval scored = score_eval(*model, val_, test_, config_.windows);
  result.threshold = scored.threshold;
  const std::vector<std::optional<SimTime>> alarms =
      scored.test.first_alarms(std::span(&result.threshold, 1));
  std::vector<AlarmOutcome> outcomes = test_.truth;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    outcomes[i].alarm = alarms[i];
  }
  finish(result, outcomes);

  std::vector<double> pooled_scores;
  std::vector<int> pooled_labels;
  for (std::size_t r = 0; r < test_.labels.size(); ++r) {
    if (test_.labels[r] < 0) continue;
    pooled_scores.push_back(scored.test.scores[r]);
    pooled_labels.push_back(test_.labels[r]);
  }
  result.sample_pr_auc = ml::pr_auc(pooled_scores, pooled_labels);
  return {std::move(result), std::move(model)};
}

Experiment::Result Experiment::run_risky_baseline() {
  Result result;
  result.algorithm = algorithm_name(Algorithm::kRiskyCePattern);
  if (fleet_->platform != dram::Platform::kIntelPurley) {
    // The published rules target the Purley ECC generation only.
    result.applicable = false;
    return result;
  }
  baseline::RiskyCePattern baseline(config_.windows);
  std::vector<const sim::DimmTrace*> fit_dimms;  // train, then val
  for (const DimmRole role : {DimmRole::kTrain, DimmRole::kVal}) {
    for (std::size_t i = 0; i < roles_.size(); ++i) {
      if (roles_[i] == role) fit_dimms.push_back(&fleet_->dimms[i]);
    }
  }
  baseline.fit(fit_dimms, fleet_->horizon);

  std::vector<AlarmOutcome> outcomes = test_.truth;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    outcomes[i].alarm = baseline.first_alarm(fleet_->dimms[test_.dimm[i]]);
  }
  finish(result, outcomes);
  result.threshold = 1.0;
  return result;
}

}  // namespace memfp::core
