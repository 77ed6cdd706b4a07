// Regenerates paper Table II: precision / recall / F1 / VIRR for the rule
// baseline (Risky CE Pattern), Random Forest, LightGBM-style GBDT and the
// FT-Transformer, per platform.
//
// With only tens of failing DIMMs per held-out split, single-split metrics
// are noisy; the tree models and the baseline are therefore averaged over
// three DIMM-split seeds. The FT-Transformer averages two splits (its
// training cost dominates the bench on a single core).
//
// "X" marks the baseline's inapplicability outside Purley, as in the paper.
#include <cstdio>

#include "bench_common.h"
#include "common/table.h"
#include "core/pipeline.h"
#include "core/platform_profile.h"
#include "sim/fleet.h"

namespace {

using namespace memfp;

struct Averaged {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double virr = 0.0;
  bool applicable = true;
};

Averaged run_averaged(const sim::FleetTrace& fleet, core::Algorithm algorithm,
                      const std::vector<std::uint64_t>& seeds) {
  Averaged avg;
  int runs = 0;
  for (std::uint64_t seed : seeds) {
    core::PipelineConfig config;
    config.sampling.seed = seed;
    core::Experiment experiment(fleet, config);
    const core::Experiment::Result result = experiment.run(algorithm);
    if (!result.applicable) {
      avg.applicable = false;
      return avg;
    }
    avg.precision += result.precision;
    avg.recall += result.recall;
    avg.f1 += result.f1;
    avg.virr += result.virr;
    ++runs;
  }
  avg.precision /= runs;
  avg.recall /= runs;
  avg.f1 /= runs;
  avg.virr /= runs;
  return avg;
}

void add_result_row(TextTable& table, const std::string& name,
                    const Averaged& avg,
                    const std::optional<core::PaperReference>& paper) {
  std::vector<std::string> row{name};
  if (avg.applicable) {
    row.push_back(bench::fmt(avg.precision));
    row.push_back(bench::fmt(avg.recall));
    row.push_back(bench::fmt(avg.f1));
    row.push_back(bench::fmt(avg.virr));
  } else {
    for (int i = 0; i < 4; ++i) row.push_back("X");
  }
  if (paper) {
    row.push_back(bench::fmt(paper->precision) + "/" +
                  bench::fmt(paper->recall) + "/" + bench::fmt(paper->f1) +
                  "/" + bench::fmt(paper->virr));
  } else {
    row.push_back("X");
  }
  table.add_row(std::move(row));
}

}  // namespace

int main() {
  const std::vector<std::uint64_t> tree_seeds{13, 29, 101};
  const std::vector<std::uint64_t> ft_seeds{13, 29};

  for (const sim::ScenarioParams& scenario : sim::all_platform_scenarios()) {
    const sim::FleetTrace fleet =
        sim::simulate_fleet(scenario.scaled(bench::bench_scale()));
    const core::PlatformProfile profile = core::profile_for(fleet.platform);

    TextTable table(std::string("Table II: ") +
                    dram::platform_name(fleet.platform) +
                    " (measured, mean of splits | paper P/R/F1/VIRR)");
    table.set_header(
        {"Algorithm", "Precision", "Recall", "F1", "VIRR", "paper"});

    add_result_row(table, "Risky CE Pattern [7]",
                   run_averaged(fleet, core::Algorithm::kRiskyCePattern,
                                tree_seeds),
                   profile.paper_risky_ce);
    add_result_row(table, "Random forest",
                   run_averaged(fleet, core::Algorithm::kRandomForest,
                                tree_seeds),
                   profile.paper_random_forest);
    add_result_row(table, "LightGBM",
                   run_averaged(fleet, core::Algorithm::kLightGbm, tree_seeds),
                   profile.paper_lightgbm);
    add_result_row(table, "FT-Transformer (2 splits)",
                   run_averaged(fleet, core::Algorithm::kFtTransformer,
                                ft_seeds),
                   profile.paper_ft_transformer);
    std::fputs(table.render().c_str(), stdout);
    std::puts("");
    std::fflush(stdout);
  }
  std::puts(
      "Paper reference (Finding 4): prediction quality orders\n"
      "Purley > K920 > Whitley; LightGBM leads on Purley/K920 and beats the\n"
      "rule baseline on Purley by ~15% F1. Split-to-split spread at this\n"
      "fleet scale is roughly +/-0.05 F1.");
  return 0;
}
