// Golden pins for the pipeline stages that Experiment, the fleet driver, the
// campaign engine and the CI/CD batch scorer share: the per-DIMM split, the
// per-DIMM downsampler, shard simulate → spill, shard read-back → extract,
// and eval scoring with threshold tuning. Every constant below was recorded
// from the code paths as they stood before those stages were unified into
// one implementation each, and must never be edited to make a refactor
// pass: a moved pin means a changed result (Table II, a deployed threshold,
// a fleet or campaign hash), not a stale constant.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "core/campaign.h"
#include "core/fleet_driver.h"
#include "core/pipeline.h"
#include "core/predictor.h"
#include "mlops/cicd.h"
#include "mlops/data_lake.h"
#include "sim/fleet.h"
#include "sim/trace_store.h"

namespace memfp {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

std::string temp_store(const std::string& leaf) {
  const auto dir = std::filesystem::temp_directory_path() / leaf;
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// FNV-1a over every column of a training set, row by row.
std::uint64_t dataset_hash(const ml::Dataset& set) {
  std::uint64_t h = sim::kFnvOffset;
  h = sim::fnv1a_u64(h, set.size());
  h = sim::fnv1a_u64(h, set.x.cols());
  for (const std::size_t col : set.categorical) h = sim::fnv1a_u64(h, col);
  for (std::size_t r = 0; r < set.size(); ++r) {
    for (const float value : set.x.row(r)) {
      h = sim::fnv1a_u64(h, std::bit_cast<std::uint32_t>(value));
    }
    h = sim::fnv1a_u64(h, static_cast<std::uint64_t>(set.y[r]));
    h = sim::fnv1a_u64(h, std::bit_cast<std::uint32_t>(set.weight[r]));
    h = sim::fnv1a_u64(h, set.dimm[r]);
    h = sim::fnv1a_u64(h, static_cast<std::uint64_t>(set.time[r]));
  }
  return h;
}

/// The 0.12-scale Purley fleet the pipeline tests use, with one default
/// Experiment and its fitted LightGBM model, built once for the suite.
struct GoldenFleet {
  sim::FleetTrace fleet =
      sim::simulate_fleet(sim::purley_scenario().scaled(0.12));
  core::Experiment experiment{fleet, core::PipelineConfig{}};
  core::Experiment::Result gbdt;
  std::unique_ptr<ml::BinaryClassifier> model;

  GoldenFleet() {
    auto [result, fitted] =
        experiment.run_with_model(core::Algorithm::kLightGbm);
    gbdt = result;
    model = std::move(fitted);
  }
};

const GoldenFleet& golden() {
  static const GoldenFleet* const instance = new GoldenFleet();
  return *instance;
}

TEST(GoldenPipeline, ExperimentSplitAndTrainingSet) {
  const core::Experiment& experiment = golden().experiment;
  EXPECT_EQ(experiment.train_dimm_count(), 342u);
  EXPECT_EQ(experiment.test_dimm_count(), 196u);
  EXPECT_EQ(experiment.train_set().size(), 2096u);
  EXPECT_EQ(dataset_hash(experiment.train_set()), 0x9086f23a4ea5209bULL);
}

TEST(GoldenPipeline, ExperimentLightGbm) {
  const core::Experiment::Result& result = golden().gbdt;
  EXPECT_EQ(result.confusion.tp, 8u);
  EXPECT_EQ(result.confusion.fp, 5u);
  EXPECT_EQ(result.confusion.fn, 0u);
  EXPECT_EQ(result.confusion.tn, 183u);
  EXPECT_EQ(bits(result.threshold), 0x3feca491c5ea0bf5ULL);
  EXPECT_EQ(bits(result.sample_pr_auc), 0x3fde538adb65515aULL);
}

TEST(GoldenPipeline, ExperimentRiskyCePattern) {
  core::Experiment experiment(golden().fleet, core::PipelineConfig{});
  const core::Experiment::Result result =
      experiment.run(core::Algorithm::kRiskyCePattern);
  EXPECT_EQ(result.confusion.tp, 7u);
  EXPECT_EQ(result.confusion.fp, 9u);
  EXPECT_EQ(result.confusion.fn, 1u);
  EXPECT_EQ(result.confusion.tn, 179u);
  EXPECT_EQ(bits(result.threshold), 0x3ff0000000000000ULL);
  EXPECT_EQ(bits(result.sample_pr_auc), 0x0ULL);
}

TEST(GoldenPipeline, ExperimentAblationProjection) {
  core::PipelineConfig config;
  config.active_features = features::FeatureSchema::standard().group_indices(
      features::FeatureGroup::kTemporal);
  core::Experiment experiment(golden().fleet, config);
  const core::Experiment::Result result =
      experiment.run(core::Algorithm::kLightGbm);
  EXPECT_EQ(dataset_hash(experiment.train_set()), 0x27daebe2803f8be2ULL);
  EXPECT_EQ(result.confusion.tp, 3u);
  EXPECT_EQ(result.confusion.fp, 2u);
  EXPECT_EQ(result.confusion.fn, 5u);
  EXPECT_EQ(result.confusion.tn, 186u);
  EXPECT_EQ(bits(result.threshold), 0x3fef72dcf0ff94bcULL);
  EXPECT_EQ(bits(result.sample_pr_auc), 0x3fd507166099f568ULL);
}

TEST(GoldenPipeline, PredictorThreshold) {
  core::MemoryFailurePredictor predictor(dram::Platform::kIntelPurley);
  predictor.train(golden().fleet);
  EXPECT_EQ(bits(predictor.threshold()), 0x3fe1bdb871131e46ULL);
}

TEST(GoldenPipeline, FleetDriverHashes) {
  core::FleetDriverConfig config;
  config.store_dir = temp_store("memfp_golden_fleet_driver");
  config.shards = 4;
  const core::FleetDriverResult run = core::run_fleet_driver(
      sim::purley_scenario(/*seed=*/99).scaled(0.08), config,
      golden().model.get());
  std::filesystem::remove_all(config.store_dir);
  EXPECT_EQ(run.planned_dimms, 442u);
  EXPECT_EQ(run.trace_hash, 0x838ed7fa3379c003ULL);
  EXPECT_EQ(run.feature_hash, 0x751d42d642037372ULL);
  EXPECT_EQ(run.score_hash, 0xf3714dbac49e8b83ULL);
}

TEST(GoldenPipeline, CampaignHash) {
  core::CampaignSpec spec;
  spec.name = "golden";
  core::ScenarioSpec scenario;
  scenario.name = "purley";
  scenario.params = sim::purley_scenario(/*seed=*/7).scaled(0.05);
  spec.scenarios.push_back(scenario);
  spec.eccs.push_back(core::EccSpec{});
  spec.predictors.push_back(core::PredictorSpec{});
  spec.policies.push_back(core::PolicySpec{});
  core::PolicySpec fixed;
  fixed.name = "fixed-0.7";
  fixed.mode = core::PolicySpec::Threshold::kFixed;
  fixed.fixed_threshold = 0.7;
  spec.policies.push_back(fixed);

  core::CampaignConfig config;
  config.store_dir = temp_store("memfp_golden_campaign");
  core::CampaignEngine engine(config);
  const core::CampaignResult result = engine.run(spec);
  EXPECT_EQ(result.campaign_hash, 0x12d8b6a2dcfa3f6bULL);
}

TEST(GoldenPipeline, BatchScoringHash) {
  mlops::DataLake lake;
  lake.ingest("golden", golden().fleet);
  const mlops::BatchScoringReport report = mlops::run_batch_scoring(
      lake, "golden", *golden().model, golden().gbdt.threshold);
  EXPECT_EQ(report.samples, 85633u);
  EXPECT_EQ(report.alarms, 368u);
  EXPECT_EQ(report.score_hash, 0xa4d581c18501c7c0ULL);
}

}  // namespace
}  // namespace memfp
