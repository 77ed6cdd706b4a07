// The pipeline stages of the paper's prediction protocol (Section VI) and
// its Fig 6 loop, each implemented once: the per-DIMM split, the per-DIMM
// downsampler, shard simulate → spill, shard read-back → extract, and eval
// scoring with threshold tuning. Experiment, run_fleet_driver, the campaign
// engine and the CI/CD batch scorer call these; each caller keeps its own
// seeds and protocol. DESIGN.md "Pipeline stages" states the contracts.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/evaluation.h"
#include "features/extractor.h"
#include "ml/dataset.h"
#include "ml/model.h"
#include "sim/dimm_sim.h"
#include "sim/fleet.h"
#include "sim/trace_store.h"

namespace memfp::core {

/// Split and downsampling settings, shared by PipelineConfig and
/// CampaignSpec.
struct SamplingConfig {
  double test_fraction = 0.30;
  double validation_fraction = 0.25;  ///< of train DIMMs, for threshold
  std::size_t max_negatives_per_dimm = 6;
  std::size_t max_positives_per_dimm = 12;
  double positive_weight_share = 0.25;
  std::uint64_t seed = 13;
};

// ---------------------------------------------------------------------------
// Split
// ---------------------------------------------------------------------------

/// kNoCe marks a DIMM with no CE history (in an observed fleet, a sudden
/// UE): nothing to train on or score. Experiment drops these; the campaign
/// evaluates them as test DIMMs.
enum class DimmRole : std::uint8_t { kTrain, kVal, kTest, kNoCe };

struct SplitDimm {
  dram::DimmId id = 0;
  bool has_ce = false;
  bool predictable = false;  ///< UE with prior CE (the model-level positive)
};

/// Assigns each DIMM a role. test_fraction of the CE DIMMs go to test, then
/// validation_fraction of the rest to validation, both stratified by class
/// (ml::split_dimms) with draws from `rng`. Ids must be unique.
std::vector<DimmRole> split_dimm_roles(std::span<const SplitDimm> dimms,
                                       const SamplingConfig& sampling,
                                       Rng& rng);

// ---------------------------------------------------------------------------
// Downsample
// ---------------------------------------------------------------------------

/// Appends one DIMM's trainable samples to `out`, negatives first:
/// negatives shuffled with `rng` down to max_negatives_per_dimm, positives
/// cut to the latest max_positives_per_dimm (closest to the failure, the
/// strongest signal). Draws from `rng` only when negatives are over the cap.
void downsample_dimm(std::vector<features::Sample> samples,
                     const SamplingConfig& sampling, Rng& rng,
                     std::vector<features::Sample>& out);

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

struct SpilledShard {
  std::vector<sim::DimmTrace> observed;  ///< still resident, in id order
  sim::ShardStats stats;
};

/// Simulates one planned id range in parallel index slots and spills the
/// observed DIMMs to a new shard at `path` in id order, folding each
/// record's content hash into `trace_hash`.
SpilledShard simulate_shard(std::span<const sim::PlannedDimm> jobs,
                            const sim::ScenarioParams& params,
                            const sim::DimmSimulator& simulator,
                            const std::string& path,
                            std::uint64_t& trace_hash);

/// Decodes and extracts every DIMM of the sealed shard at `path` in
/// parallel index slots, one task per DIMM; `extractor_for(i)` picks the
/// extractor for the shard's i-th DIMM.
std::vector<std::vector<features::Sample>> extract_shard(
    const std::string& path, SimTime horizon,
    const std::function<const features::FeatureExtractor&(std::size_t)>&
        extractor_for);

/// Folds the bits of every score, in order, into `h`.
std::uint64_t fold_score_hash(std::uint64_t h, std::span<const double> scores);

// ---------------------------------------------------------------------------
// Score
// ---------------------------------------------------------------------------

/// One evaluation partition (validation or test): one stream per DIMM, in
/// the order the DIMMs were appended.
struct EvalPartition {
  std::vector<std::size_t> dimm;    ///< the caller's index of each DIMM
  std::vector<AlarmOutcome> truth;  ///< model-level truth; alarm unset
  ScoreStreamSet streams;           ///< offsets + times; scores stay empty
  ml::Matrix x;                     ///< one feature row per sample
  std::vector<std::int8_t> labels;  ///< per-sample label (-1 = too late)

  /// Appends one DIMM's samples as a stream.
  void append(std::size_t index, const AlarmOutcome& outcome,
              const std::vector<features::Sample>& samples);
};

/// Training samples and evaluation partitions of one split fleet.
struct SplitPartitions {
  std::vector<features::Sample> train;  ///< downsampled, in DIMM order
  EvalPartition val;
  EvalPartition test;

  /// Routes one DIMM's samples by role: kTrain samples go through
  /// downsample_dimm, kVal samples become a validation stream, kTest and
  /// kNoCe samples a test stream.
  void add(DimmRole role, std::size_t index, const AlarmOutcome& outcome,
           std::vector<features::Sample> samples,
           const SamplingConfig& sampling, Rng& rng);
};

/// The F1-optimal threshold, tuned on the scored validation streams against
/// their model-level truth, and the scored test partition.
struct ScoredEval {
  double threshold = 0.5;
  ScoreStreamSet test;
};

/// Scores every row of a partition in one predict_batch call; the result
/// shares the partition's stream layout.
ScoreStreamSet score_partition(const ml::BinaryClassifier& model,
                               const EvalPartition& partition);

ScoredEval score_eval(const ml::BinaryClassifier& model,
                      const EvalPartition& val, const EvalPartition& test,
                      const features::PredictionWindows& windows);

}  // namespace memfp::core
