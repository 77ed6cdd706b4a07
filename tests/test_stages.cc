// Contracts of the shared pipeline stages (src/core/stages.h) that the
// golden pins cannot localise: the per-DIMM downsampler's caps and the
// split's role assignment.
#include "core/stages.h"

#include <gtest/gtest.h>

#include <vector>

namespace memfp::core {
namespace {

/// One DIMM's samples: three negatives, then three positives on days 4-6,
/// then a too-late sample.
std::vector<features::Sample> one_dimm_samples() {
  std::vector<features::Sample> samples;
  for (int s = 0; s < 7; ++s) {
    features::Sample sample;
    sample.dimm = 5;
    sample.time = days(s + 1);
    sample.label = s < 3 ? 0 : s < 6 ? 1 : -1;
    sample.features = {static_cast<float>(s)};
    samples.push_back(sample);
  }
  return samples;
}

std::size_t count_label(const std::vector<features::Sample>& samples,
                        int label) {
  std::size_t count = 0;
  for (const features::Sample& sample : samples) count += sample.label == label;
  return count;
}

TEST(Downsample, CapsNegativesPerDimm) {
  SamplingConfig sampling;
  sampling.max_negatives_per_dimm = 1;
  sampling.max_positives_per_dimm = 10;
  Rng rng(7);
  std::vector<features::Sample> out;
  downsample_dimm(one_dimm_samples(), sampling, rng, out);
  // 3 negatives capped at 1, all 3 positives, the too-late sample dropped.
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(count_label(out, 0), 1u);
  EXPECT_EQ(count_label(out, 1), 3u);
  EXPECT_EQ(out.front().label, 0);  // negatives precede positives
}

TEST(Downsample, KeepsLatestPositives) {
  SamplingConfig sampling;
  sampling.max_negatives_per_dimm = 10;
  sampling.max_positives_per_dimm = 1;
  Rng rng(7);
  std::vector<features::Sample> out;
  downsample_dimm(one_dimm_samples(), sampling, rng, out);
  ASSERT_EQ(count_label(out, 1), 1u);
  EXPECT_EQ(count_label(out, 0), 3u);
  EXPECT_EQ(out.back().time, days(6));  // the latest positive sample
  // Under the negative cap nothing is shuffled, so no draw is taken.
  Rng untouched(7);
  EXPECT_EQ(untouched.next(), rng.next());
}

TEST(SplitDimmRoles, NoCeDimmsGetTheirOwnRole) {
  std::vector<SplitDimm> dimms;
  for (dram::DimmId id = 0; id < 200; ++id) {
    dimms.push_back({id, /*has_ce=*/id % 10 != 0, /*predictable=*/id % 7 == 1});
  }
  SamplingConfig sampling;
  Rng rng(11);
  const std::vector<DimmRole> roles = split_dimm_roles(dimms, sampling, rng);
  ASSERT_EQ(roles.size(), dimms.size());
  std::size_t counts[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < dimms.size(); ++i) {
    EXPECT_EQ(roles[i] == DimmRole::kNoCe, !dimms[i].has_ce) << i;
    ++counts[static_cast<int>(roles[i])];
  }
  // 180 CE DIMMs: 30% to test, then 25% of the remaining 126 to validation
  // (each class rounded on its own).
  EXPECT_EQ(counts[static_cast<int>(DimmRole::kNoCe)], 20u);
  EXPECT_EQ(counts[static_cast<int>(DimmRole::kTest)], 54u);
  EXPECT_EQ(counts[static_cast<int>(DimmRole::kVal)], 32u);
  EXPECT_EQ(counts[static_cast<int>(DimmRole::kTrain)], 94u);

  Rng again(11);
  EXPECT_EQ(split_dimm_roles(dimms, sampling, again), roles);
}

}  // namespace
}  // namespace memfp::core
