// DIMM-level evaluation with alarm semantics (paper Section IV).
//
// A predictor watches each DIMM's telemetry stream and raises an alarm the
// first time its score crosses the threshold. The alarm is a true positive
// only if the DIMM's UE then arrives no sooner than the lead time dt_l and
// no later than dt_l + dt_p — early enough to act, close enough to matter.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/time.h"
#include "features/windows.h"
#include "ml/metrics.h"

namespace memfp::core {

/// The outcome material for one evaluated DIMM.
struct AlarmOutcome {
  bool positive = false;  ///< DIMM had a predictable UE
  SimTime ue_time = 0;    ///< valid when positive
  std::optional<SimTime> alarm;
};

/// Classifies alarm outcomes into a confusion matrix under the window rules.
ml::Confusion dimm_confusion(const std::vector<AlarmOutcome>& outcomes,
                             const features::PredictionWindows& windows);

/// A scored telemetry stream of one DIMM (times ascending).
struct ScoredStream {
  std::vector<SimTime> times;
  std::vector<double> scores;

  /// First crossing of `threshold`; nullopt when never crossed.
  std::optional<SimTime> first_alarm(double threshold) const;
};

/// Per-DIMM score streams in flat SoA layout (flat_ensemble-style): stream s
/// owns [offsets[s], offsets[s+1]) of `times`/`scores`.
struct ScoreStreamSet {
  std::vector<std::size_t> offsets{0};
  std::vector<SimTime> times;
  std::vector<double> scores;

  std::size_t streams() const { return offsets.size() - 1; }

  /// First alarm of every (threshold, stream) pair in ONE pass per stream:
  /// thresholds are visited in descending order, so the set a score event
  /// latches is always a contiguous suffix and each event costs one binary
  /// search. Output is indexed out[t * streams() + s]. Tie rule: a score
  /// exactly at the threshold alarms (score >= threshold), identical to
  /// ScoredStream::first_alarm and the serving-layer latch.
  std::vector<std::optional<SimTime>> first_alarms(
      std::span<const double> thresholds) const;

  /// AoS view of one stream (the campaign's scalar reference replay).
  ScoredStream stream(std::size_t s) const;
};

/// Picks the threshold maximizing DIMM-level F1 over validation streams.
/// Candidates are the distinct per-DIMM maximum scores.
double tune_threshold(const ScoreStreamSet& streams,
                      const std::vector<AlarmOutcome>& outcomes_template,
                      const features::PredictionWindows& windows);

}  // namespace memfp::core
