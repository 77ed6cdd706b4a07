#include "core/evaluation.h"

#include <algorithm>

#include "common/check.h"

namespace memfp::core {

ml::Confusion dimm_confusion(const std::vector<AlarmOutcome>& outcomes,
                             const features::PredictionWindows& windows) {
  ml::Confusion c;
  for (const AlarmOutcome& outcome : outcomes) {
    if (outcome.positive) {
      const bool timely =
          outcome.alarm &&
          outcome.ue_time - *outcome.alarm >= windows.lead &&
          outcome.ue_time - *outcome.alarm <= windows.lead + windows.prediction;
      if (timely) {
        ++c.tp;
      } else {
        ++c.fn;
        // An alarm outside the valid window also cost a (useless) migration.
        if (outcome.alarm) ++c.fp;
      }
    } else if (outcome.alarm) {
      ++c.fp;
    } else {
      ++c.tn;
    }
  }
  return c;
}

std::optional<SimTime> ScoredStream::first_alarm(double threshold) const {
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] >= threshold) return times[i];
  }
  return std::nullopt;
}

std::vector<std::optional<SimTime>> ScoreStreamSet::first_alarms(
    std::span<const double> thresholds) const {
  const std::size_t n = streams();
  const std::size_t t = thresholds.size();
  std::vector<std::optional<SimTime>> out(n * t);
  if (t == 0 || n == 0) return out;

  // Thresholds in descending order: the set a score event latches —
  // every still-unlatched threshold <= score — is then a contiguous range
  // ending at the previous latch boundary, so one pass per stream latches
  // all T thresholds with one binary search per event.
  std::vector<std::size_t> order(t);
  for (std::size_t i = 0; i < t; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return thresholds[a] > thresholds[b];
                   });
  std::vector<double> sorted(t);
  for (std::size_t i = 0; i < t; ++i) sorted[i] = thresholds[order[i]];

  for (std::size_t s = 0; s < n; ++s) {
    std::size_t boundary = t;  // order[boundary..t) already latched
    for (std::size_t r = offsets[s]; r < offsets[s + 1] && boundary > 0;
         ++r) {
      const double score = scores[r];
      // First index whose threshold <= score. The <= (not <) comparison is
      // the tie rule: a score exactly at the threshold alarms, matching
      // ScoredStream::first_alarm and the serving-layer latch.
      const auto first = std::partition_point(
          sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(boundary),
          [&](double threshold) { return threshold > score; });
      const auto j = static_cast<std::size_t>(first - sorted.begin());
      for (std::size_t k = j; k < boundary; ++k) {
        out[order[k] * n + s] = times[r];
      }
      boundary = j;
    }
  }
  return out;
}

ScoredStream ScoreStreamSet::stream(std::size_t s) const {
  MEMFP_CHECK_LT(s, streams());
  ScoredStream stream;
  stream.times.assign(times.begin() + static_cast<std::ptrdiff_t>(offsets[s]),
                      times.begin() + static_cast<std::ptrdiff_t>(offsets[s + 1]));
  stream.scores.assign(
      scores.begin() + static_cast<std::ptrdiff_t>(offsets[s]),
      scores.begin() + static_cast<std::ptrdiff_t>(offsets[s + 1]));
  return stream;
}

double tune_threshold(const ScoreStreamSet& streams,
                      const std::vector<AlarmOutcome>& outcomes_template,
                      const features::PredictionWindows& windows) {
  MEMFP_CHECK_EQ(streams.streams(), outcomes_template.size());
  // Candidate thresholds: the distinct per-DIMM maxima (every alarm-set
  // change happens at one of them), probed just below each value.
  std::vector<double> candidates;
  for (std::size_t s = 0; s < streams.streams(); ++s) {
    double m = 0.0;
    for (std::size_t r = streams.offsets[s]; r < streams.offsets[s + 1]; ++r) {
      m = std::max(m, streams.scores[r]);
    }
    if (m > 0.0) candidates.push_back(m);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (candidates.empty()) return 0.5;

  std::vector<AlarmOutcome> outcomes = outcomes_template;
  std::vector<std::pair<double, double>> curve;  // (threshold, smoothed F1)
  double best_f1 = -1.0;
  for (double candidate : candidates) {
    const double threshold = candidate - 1e-9;
    const std::vector<std::optional<SimTime>> alarms =
        streams.first_alarms(std::span(&threshold, 1));
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      outcomes[i].alarm = alarms[i];
    }
    const ml::Confusion c = dimm_confusion(outcomes, windows);
    // Laplace-smoothed F1: validation folds hold only a handful of positive
    // DIMMs, and raw F1 rewards degenerate 2-alarm thresholds; the smoothing
    // term damps those spikes.
    constexpr double kAlpha = 3.0;
    const double f1 = 2.0 * static_cast<double>(c.tp) /
                      (2.0 * static_cast<double>(c.tp) +
                       static_cast<double>(c.fp) + static_cast<double>(c.fn) +
                       kAlpha);
    curve.emplace_back(threshold, f1);
    best_f1 = std::max(best_f1, f1);
  }
  // The validation F1 curve is typically flat near its peak and the argmax
  // is noise; among near-optimal thresholds take the lowest. More alarms at
  // indistinguishable F1 means higher recall — the direction VIRR rewards.
  double best_threshold = 0.5;
  for (const auto& [threshold, f1] : curve) {
    if (f1 >= best_f1 * 0.93) {
      best_threshold = threshold;
      break;  // candidates are ascending; the first qualifying is lowest
    }
  }
  return best_threshold;
}

}  // namespace memfp::core
