// The campaign-sweep workload runs bench/bench_campaign.cc's spec at half
// size; at full size and seed 0 that spec must still fold the campaign hash
// the bench has always recorded.
#include <gtest/gtest.h>

#include <filesystem>

#include "workloads.h"

namespace memfp::perfbench {
namespace {

TEST(CampaignSpec, BenchSpecFoldsItsKnownHash) {
  const core::CampaignSpec spec = campaign_spec(0, 1.0);
  ASSERT_EQ(spec.points(), 48u);
  core::CampaignConfig config;
  config.store_dir = ".bench_work/campaign-spec-test";
  {
    core::CampaignEngine engine(config);
    EXPECT_EQ(engine.run(spec).campaign_hash, kBenchCampaignHash);
  }
  std::filesystem::remove_all(config.store_dir);
}

TEST(CampaignSpec, SeedMovesOnlyTheSplit) {
  const core::CampaignSpec base = campaign_spec(0, 0.5);
  const core::CampaignSpec moved = campaign_spec(7, 0.5);
  EXPECT_EQ(moved.sampling.seed, base.sampling.seed + 7);
  ASSERT_EQ(moved.scenarios.size(), base.scenarios.size());
  for (std::size_t i = 0; i < base.scenarios.size(); ++i) {
    EXPECT_EQ(moved.scenarios[i].params.seed, base.scenarios[i].params.seed);
    EXPECT_EQ(moved.scenarios[i].params.ce_dimms,
              base.scenarios[i].params.ce_dimms);
  }
}

}  // namespace
}  // namespace memfp::perfbench
