#include "mlops/cicd.h"

#include <stdexcept>

#include "common/logging.h"
#include "core/stages.h"
#include "features/extractor.h"
#include "sim/trace_store.h"

namespace memfp::mlops {

TrainingRunReport run_training_pipeline(const DataLake& lake,
                                        const std::string& partition,
                                        ModelRegistry& registry,
                                        const TrainingPipelineConfig& config) {
  if (config.algorithm == core::Algorithm::kRiskyCePattern) {
    throw std::invalid_argument(
        "run_training_pipeline: the rule baseline is not deployable");
  }
  // Training consumes the whole partition; a spilled one is decoded into a
  // transient resident copy for the duration of the run.
  sim::FleetTrace decoded;
  if (lake.spilled(partition)) decoded = lake.materialize(partition);
  const sim::FleetTrace& fleet =
      lake.spilled(partition) ? decoded : lake.get(partition);
  core::Experiment experiment(fleet, config.pipeline);
  auto [result, model] = experiment.run_with_model(config.algorithm);

  ModelVersion version;
  version.platform = fleet.platform;
  version.algorithm = result.algorithm;
  version.benchmark_f1 = result.f1;
  version.benchmark_virr = result.virr;
  version.threshold = result.threshold;
  version.artifact = model->to_json();

  TrainingRunReport report;
  report.evaluation = result;
  report.version = registry.add(std::move(version));
  report.promoted = registry.promote(report.version, config.min_improvement);
  MEMFP_INFO << "cicd: trained " << result.algorithm << " on " << partition
             << " (F1 " << result.f1 << "), version " << report.version
             << (report.promoted ? " promoted" : " held in staging");
  return report;
}

BatchScoringReport run_batch_scoring(const DataLake& lake,
                                     const std::string& partition,
                                     const ml::BinaryClassifier& model,
                                     double threshold,
                                     const features::PredictionWindows&
                                         windows) {
  const features::FeatureExtractor extractor(windows);
  const DataLake::PartitionInfo info = lake.info(partition);

  BatchScoringReport report;
  report.score_hash = sim::kFnvOffset;
  lake.for_each_dimm(partition, [&](const sim::DimmTrace& dimm) {
    ++report.dimms;
    core::EvalPartition rows;
    rows.append(0, {}, extractor.extract(dimm, info.horizon));
    const std::vector<double> scores =
        core::score_partition(model, rows).scores;
    report.samples += scores.size();
    report.score_hash = core::fold_score_hash(report.score_hash, scores);
    for (const double score : scores) {
      report.score_sum += score;
      report.alarms += score >= threshold ? 1 : 0;
    }
  });
  MEMFP_INFO << "cicd: batch-scored " << partition << " (" << report.dimms
             << " DIMMs, " << report.samples << " samples, " << report.alarms
             << " alarms)";
  return report;
}

}  // namespace memfp::mlops
