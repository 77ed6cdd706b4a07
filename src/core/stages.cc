#include "core/stages.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/thread_pool.h"
#include "dram/geometry.h"

namespace memfp::core {

// ---------------------------------------------------------------------------
// Split
// ---------------------------------------------------------------------------

std::vector<DimmRole> split_dimm_roles(std::span<const SplitDimm> dimms,
                                       const SamplingConfig& sampling,
                                       Rng& rng) {
  std::vector<DimmRole> roles(dimms.size());
  for (std::size_t i = 0; i < dimms.size(); ++i) {
    roles[i] = dimms[i].has_ce ? DimmRole::kTrain : DimmRole::kNoCe;
  }
  // Moves `fraction` of the kTrain DIMMs to `role`, stratified by class.
  const auto split_off = [&](double fraction, DimmRole role) {
    std::vector<dram::DimmId> positives, negatives;
    for (std::size_t i = 0; i < dimms.size(); ++i) {
      if (roles[i] != DimmRole::kTrain) continue;
      (dimms[i].predictable ? positives : negatives).push_back(dimms[i].id);
    }
    std::vector<dram::DimmId> moved =
        ml::split_dimms(positives, negatives, fraction, rng).test;
    std::sort(moved.begin(), moved.end());
    for (std::size_t i = 0; i < dimms.size(); ++i) {
      if (roles[i] == DimmRole::kTrain &&
          std::binary_search(moved.begin(), moved.end(), dimms[i].id)) {
        roles[i] = role;
      }
    }
  };
  split_off(sampling.test_fraction, DimmRole::kTest);
  // The validation fold (for threshold tuning) comes out of the train side.
  split_off(sampling.validation_fraction, DimmRole::kVal);
  return roles;
}

// ---------------------------------------------------------------------------
// Downsample
// ---------------------------------------------------------------------------

void downsample_dimm(std::vector<features::Sample> samples,
                     const SamplingConfig& sampling, Rng& rng,
                     std::vector<features::Sample>& out) {
  std::vector<features::Sample> positives, negatives;
  for (features::Sample& sample : samples) {
    if (sample.label == 1) positives.push_back(std::move(sample));
    else if (sample.label == 0) negatives.push_back(std::move(sample));
  }
  if (negatives.size() > sampling.max_negatives_per_dimm) {
    rng.shuffle(negatives);
    negatives.resize(sampling.max_negatives_per_dimm);
  }
  if (positives.size() > sampling.max_positives_per_dimm) {
    positives.erase(positives.begin(),
                    positives.end() - static_cast<std::ptrdiff_t>(
                                          sampling.max_positives_per_dimm));
  }
  for (features::Sample& sample : negatives) out.push_back(std::move(sample));
  for (features::Sample& sample : positives) out.push_back(std::move(sample));
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

SpilledShard simulate_shard(std::span<const sim::PlannedDimm> jobs,
                            const sim::ScenarioParams& params,
                            const sim::DimmSimulator& simulator,
                            const std::string& path,
                            std::uint64_t& trace_hash) {
  const dram::Geometry geometry = dram::Geometry::ddr4_x4();
  std::vector<sim::DimmTrace> traces(jobs.size());
  ThreadPool::global().parallel_for(
      jobs.size(),
      [&](std::size_t i) {
        traces[i] =
            sim::simulate_planned_dimm(jobs[i], params, simulator, geometry);
      },
      /*grain=*/1);

  SpilledShard shard;
  sim::ShardWriter writer(path, params.platform, params.horizon);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (!sim::enters_observed_dataset(jobs[i].kind, traces[i])) continue;
    trace_hash = sim::fnv1a_u64(trace_hash, writer.append(traces[i]));
    shard.observed.push_back(std::move(traces[i]));
  }
  shard.stats = writer.finish();
  return shard;
}

std::vector<std::vector<features::Sample>> extract_shard(
    const std::string& path, SimTime horizon,
    const std::function<const features::FeatureExtractor&(std::size_t)>&
        extractor_for) {
  const sim::TraceReader reader(path);
  std::vector<std::vector<features::Sample>> samples(reader.dimm_count());
  ThreadPool::global().parallel_for(
      samples.size(),
      [&](std::size_t i) {
        samples[i] = extractor_for(i).extract(reader.read_dimm(i), horizon);
      },
      /*grain=*/1);
  return samples;
}

std::uint64_t fold_score_hash(std::uint64_t h,
                              std::span<const double> scores) {
  for (const double score : scores) {
    h = sim::fnv1a_u64(h, std::bit_cast<std::uint64_t>(score));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Score
// ---------------------------------------------------------------------------

void EvalPartition::append(std::size_t index, const AlarmOutcome& outcome,
                           const std::vector<features::Sample>& samples) {
  dimm.push_back(index);
  truth.push_back(outcome);
  for (const features::Sample& sample : samples) {
    streams.times.push_back(sample.time);
    labels.push_back(static_cast<std::int8_t>(sample.label));
    x.push_row(sample.features);
  }
  streams.offsets.push_back(streams.times.size());
}

void SplitPartitions::add(DimmRole role, std::size_t index,
                          const AlarmOutcome& outcome,
                          std::vector<features::Sample> samples,
                          const SamplingConfig& sampling, Rng& rng) {
  switch (role) {
    case DimmRole::kTrain:
      downsample_dimm(std::move(samples), sampling, rng, train);
      break;
    case DimmRole::kVal:
      val.append(index, outcome, samples);
      break;
    case DimmRole::kTest:
    case DimmRole::kNoCe:
      test.append(index, outcome, samples);
      break;
  }
}

ScoreStreamSet score_partition(const ml::BinaryClassifier& model,
                               const EvalPartition& partition) {
  ScoreStreamSet out;
  out.offsets = partition.streams.offsets;
  out.times = partition.streams.times;
  // predict_batch is contractually bit-identical to the serial per-row walk
  // at any thread count and batch size, so the scores are too.
  if (partition.x.rows() > 0) out.scores = model.predict_batch(partition.x);
  MEMFP_CHECK_EQ(out.scores.size(), out.times.size());
  return out;
}

ScoredEval score_eval(const ml::BinaryClassifier& model,
                      const EvalPartition& val, const EvalPartition& test,
                      const features::PredictionWindows& windows) {
  ScoredEval scored;
  scored.threshold =
      tune_threshold(score_partition(model, val), val.truth, windows);
  scored.test = score_partition(model, test);
  return scored;
}

}  // namespace memfp::core
