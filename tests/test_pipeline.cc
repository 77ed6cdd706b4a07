#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/predictor.h"
#include "sim/fleet.h"

namespace memfp::core {
namespace {

/// Small shared fleet so the experiment tests stay fast.
const sim::FleetTrace& small_fleet() {
  static const sim::FleetTrace fleet =
      sim::simulate_fleet(sim::purley_scenario().scaled(0.12));
  return fleet;
}

TEST(Pipeline, AlgorithmNamesAndFactory) {
  EXPECT_STREQ(algorithm_name(Algorithm::kLightGbm), "LightGBM");
  EXPECT_STREQ(algorithm_name(Algorithm::kRiskyCePattern),
               "Risky CE Pattern");
  EXPECT_NE(make_model(Algorithm::kRandomForest), nullptr);
  EXPECT_NE(make_model(Algorithm::kFtTransformer), nullptr);
  EXPECT_THROW(make_model(Algorithm::kRiskyCePattern), std::invalid_argument);
}

TEST(Pipeline, TrainTestDimmsDisjoint) {
  PipelineConfig config;
  Experiment experiment(small_fleet(), config);
  // Training rows must come only from non-test DIMMs; reconstruct the test
  // ids from the counts and the training set's dimm column.
  std::set<dram::DimmId> train_ids(experiment.train_set().dimm.begin(),
                                   experiment.train_set().dimm.end());
  EXPECT_GT(experiment.test_dimm_count(), 0u);
  EXPECT_GT(train_ids.size(), 0u);
  // The experiment's own invariant: |train| + |val| + |test| <= eligible.
  EXPECT_LE(train_ids.size(), experiment.train_dimm_count());
}

TEST(Pipeline, TrainSetRespectsDownsamplingCaps) {
  PipelineConfig config;
  config.sampling.max_negatives_per_dimm = 3;
  config.sampling.max_positives_per_dimm = 5;
  Experiment experiment(small_fleet(), config);
  std::map<dram::DimmId, std::size_t> neg_counts, pos_counts;
  const ml::Dataset& train = experiment.train_set();
  for (std::size_t r = 0; r < train.size(); ++r) {
    if (train.y[r] == 1) ++pos_counts[train.dimm[r]];
    else ++neg_counts[train.dimm[r]];
  }
  for (const auto& [id, count] : neg_counts) EXPECT_LE(count, 3u);
  for (const auto& [id, count] : pos_counts) EXPECT_LE(count, 5u);
}

TEST(Pipeline, GbdtRunProducesSaneMetrics) {
  PipelineConfig config;
  Experiment experiment(small_fleet(), config);
  const Experiment::Result result = experiment.run(Algorithm::kLightGbm);
  EXPECT_TRUE(result.applicable);
  EXPECT_GE(result.precision, 0.0);
  EXPECT_LE(result.precision, 1.0);
  EXPECT_GE(result.recall, 0.0);
  EXPECT_LE(result.recall, 1.0);
  EXPECT_GE(result.f1, 0.0);
  EXPECT_LE(result.f1, 1.0);
  EXPECT_LE(result.virr, 1.0);
  // Totals must cover every evaluated DIMM.
  const auto total = result.confusion.tp + result.confusion.fp +
                     result.confusion.fn + result.confusion.tn;
  EXPECT_GE(total, experiment.test_dimm_count());
}

TEST(Pipeline, BaselineApplicableOnlyOnPurley) {
  PipelineConfig config;
  Experiment purley(small_fleet(), config);
  EXPECT_TRUE(purley.run(Algorithm::kRiskyCePattern).applicable);

  const sim::FleetTrace k920 =
      sim::simulate_fleet(sim::k920_scenario().scaled(0.05));
  Experiment other(k920, config);
  const Experiment::Result result = other.run(Algorithm::kRiskyCePattern);
  EXPECT_FALSE(result.applicable);
}

TEST(Pipeline, AblationRestrictsFeatures) {
  PipelineConfig config;
  // Keep only the temporal group.
  const features::FeatureSchema schema = features::FeatureSchema::standard();
  config.active_features =
      schema.group_indices(features::FeatureGroup::kTemporal);
  Experiment experiment(small_fleet(), config);
  EXPECT_EQ(experiment.train_set().x.cols(), config.active_features.size());
  const Experiment::Result result = experiment.run(Algorithm::kLightGbm);
  EXPECT_TRUE(result.applicable);  // runs end-to-end on the projected space
}

TEST(PipelineDeathTest, RejectsActiveFeatureOutsideSchema) {
  PipelineConfig config;
  const std::size_t width = features::FeatureSchema::standard().size();
  config.active_features = {0, width};
  EXPECT_DEATH(Experiment(small_fleet(), config),
               "active_features: column " + std::to_string(width) +
                   " is outside the " + std::to_string(width) +
                   "-column feature schema");
}

TEST(Pipeline, RunWithModelHandsBackFittedModel) {
  PipelineConfig config;
  Experiment experiment(small_fleet(), config);
  auto [result, model] = experiment.run_with_model(Algorithm::kLightGbm);
  ASSERT_NE(model, nullptr);
  // The model scores the training rows without throwing.
  const std::vector<double> scores =
      model->predict_batch(experiment.train_set().x);
  EXPECT_EQ(scores.size(), experiment.train_set().size());
}

TEST(Predictor, TrainScorePredictRoundTrip) {
  MemoryFailurePredictor::Options options;
  options.algorithm = Algorithm::kLightGbm;
  MemoryFailurePredictor predictor(dram::Platform::kIntelPurley, options);
  EXPECT_FALSE(predictor.trained());
  EXPECT_THROW(predictor.score(small_fleet().dimms.front(), days(10)),
               std::logic_error);

  predictor.train(small_fleet());
  EXPECT_TRUE(predictor.trained());
  EXPECT_GT(predictor.threshold(), 0.0);

  // Scores are probabilities over the whole fleet.
  int scored = 0;
  for (const sim::DimmTrace& dimm : small_fleet().dimms) {
    if (dimm.ces.empty()) continue;
    const double score = predictor.score(dimm, days(100));
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
    if (++scored >= 25) break;
  }
  // Export carries the model artifact.
  const Json exported = predictor.to_json();
  EXPECT_EQ(exported.at("platform").as_string(), "Intel Purley");
  EXPECT_TRUE(exported.contains("model"));
}

TEST(Predictor, RejectsMismatchedPlatform) {
  MemoryFailurePredictor predictor(dram::Platform::kK920);
  EXPECT_THROW(predictor.train(small_fleet()), std::invalid_argument);
}

TEST(Predictor, QuietDimmScoresZero) {
  MemoryFailurePredictor::Options options;
  options.algorithm = Algorithm::kLightGbm;
  MemoryFailurePredictor predictor(dram::Platform::kIntelPurley, options);
  predictor.train(small_fleet());
  sim::DimmTrace quiet;
  quiet.platform = dram::Platform::kIntelPurley;
  EXPECT_EQ(predictor.score(quiet, days(50)), 0.0);
  EXPECT_FALSE(predictor.predict(quiet, days(50)));
}

}  // namespace
}  // namespace memfp::core
