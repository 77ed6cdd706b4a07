// Tests of the benchmark harness: peak-RSS isolation, the one percentile
// path, and strict argument parsing.
#include "harness.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace memfp::perfbench {
namespace {

constexpr std::size_t kMiB = 1024 * 1024;

TEST(PeakRss, ResetForgetsAFreedAllocation) {
  {
    // 400 MB, touched page by page so it is resident, then freed.
    const std::size_t bytes = 400 * kMiB;
    auto* block = static_cast<char*>(std::malloc(bytes));
    ASSERT_NE(block, nullptr);
    for (std::size_t i = 0; i < bytes; i += 4096) block[i] = 1;
    volatile char sink = block[bytes / 2];
    (void)sink;
    std::free(block);
  }
  ASSERT_GE(peak_rss_bytes(), 400 * kMiB);
  if (!reset_peak_rss()) GTEST_SKIP() << "kernel refuses /proc/self/clear_refs";
  EXPECT_LT(peak_rss_bytes(), 200 * kMiB);
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> sample(n);
  // Descending, so the helpers must sort.
  for (std::size_t i = 0; i < n; ++i) sample[i] = static_cast<double>(n - i);
  return sample;
}

TEST(Percentile, NearestRankIsExact) {
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({7.0}, 99.0), 7.0);
  EXPECT_EQ(percentile(ramp(10), 50.0), 5.0);
  EXPECT_EQ(percentile(ramp(10), 0.0), 1.0);
  EXPECT_EQ(percentile(ramp(10), 100.0), 10.0);
  // p99.9 of 10^4 is the 9990th: no floating-point rank drift.
  EXPECT_EQ(percentile(ramp(10000), 99.9), 9990.0);
  EXPECT_EQ(percentile(ramp(1000), 99.0), 990.0);
  EXPECT_EQ(median(ramp(999)), 500.0);
}

TEST(Percentile, SummaryTailNeedsTenSamplesBeyond) {
  const Summary s999 = summarize(ramp(999));
  EXPECT_EQ(s999.count, 999u);
  EXPECT_EQ(s999.p50, 500.0);
  // p99 of 999 is rank 990, leaving 9 above: not supported; p95 is.
  EXPECT_EQ(s999.tail_percentile, 95.0);
  EXPECT_EQ(s999.tail, 950.0);

  const Summary s1000 = summarize(ramp(1000));
  EXPECT_EQ(s1000.tail_percentile, 99.0);
  EXPECT_EQ(s1000.tail, 990.0);

  const Summary s10k = summarize(ramp(10000));
  EXPECT_EQ(s10k.count, 10000u);
  EXPECT_EQ(s10k.p50, 5000.0);
  EXPECT_EQ(s10k.tail_percentile, 99.9);
  EXPECT_EQ(s10k.tail, 9990.0);

  const Summary tiny = summarize(ramp(5));
  EXPECT_EQ(tiny.tail_percentile, 0.0);
  EXPECT_EQ(tiny.tail, tiny.p50);
  EXPECT_FALSE(percentile_supported(999, 99.0));
  EXPECT_TRUE(percentile_supported(1000, 99.0));
}

std::vector<std::string> argv_with(const std::string& flag,
                                   const std::string& value) {
  std::vector<std::string> argv = {"--workload", "fleet-batch", "--seed", "3",
                                   "--seconds",  "10",          "--trace", "0"};
  for (std::size_t i = 0; i < argv.size(); i += 2) {
    if (argv[i] == flag) {
      argv[i + 1] = value;
      return argv;
    }
  }
  argv.push_back(flag);
  argv.push_back(value);
  return argv;
}

TEST(Args, AcceptsTheDriverForm) {
  std::string error;
  const auto args = parse_args(argv_with("--trace", "1"), error);
  ASSERT_TRUE(args.has_value()) << error;
  EXPECT_EQ(args->workload, "fleet-batch");
  EXPECT_EQ(args->seed, 3u);
  EXPECT_EQ(args->seconds, 10);
  EXPECT_TRUE(args->trace);
  EXPECT_GE(args->threads, 1);
}

TEST(Args, RejectsInvalidValuesWithADiagnostic) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--seed", "-1"},       {"--seed", "+1"},      {"--seed", "1.5"},
      {"--seed", "abc"},      {"--seed", ""},        {"--seed", "7x"},
      {"--seed", "99999999999999999999999"},         {"--seconds", "0"},
      {"--seconds", "601"},   {"--seconds", "ten"},  {"--trace", "2"},
      {"--trace", "yes"},     {"--workload", "nope"}, {"--threads", "2"},
      {"--commit", ""},
  };
  for (const auto& [flag, value] : bad) {
    std::string error;
    EXPECT_FALSE(parse_args(argv_with(flag, value), error).has_value())
        << flag << " " << value;
    EXPECT_NE(error.find(flag), std::string::npos)
        << "diagnostic '" << error << "' does not name " << flag;
  }
}

TEST(Args, RejectsMissingFlagsAndValues) {
  std::string error;
  EXPECT_FALSE(parse_args({"--workload", "fleet-batch"}, error).has_value());
  EXPECT_NE(error.find("required"), std::string::npos);
  EXPECT_FALSE(parse_args({"--workload"}, error).has_value());
  EXPECT_NE(error.find("--workload"), std::string::npos);
}

TEST(Result, JsonKeepsEveryDigit) {
  Result result;
  result.attempted = 12;
  result.add("latency_ms", 1.2345678901234567, "ms");
  EXPECT_EQ(result_json(result),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2345678901234567, "
            "\"unit\": \"ms\"}}}");
  result.fail("hash mismatch");
  EXPECT_FALSE(result.correct);
}

}  // namespace
}  // namespace memfp::perfbench
