#include "core/evaluation.h"

#include <gtest/gtest.h>

namespace memfp::core {
namespace {

features::PredictionWindows test_windows() {
  features::PredictionWindows w;
  w.lead = hours(3);
  w.prediction = days(30);
  return w;
}

TEST(DimmConfusion, TimelyAlarmIsTp) {
  AlarmOutcome outcome;
  outcome.positive = true;
  outcome.ue_time = days(10);
  outcome.alarm = days(10) - hours(5);  // 5h lead: inside [3h, 3h+30d]
  const ml::Confusion c = dimm_confusion({outcome}, test_windows());
  EXPECT_EQ(c.tp, 1u);
  EXPECT_EQ(c.fn, 0u);
}

TEST(DimmConfusion, TooLateAlarmIsFnPlusFp) {
  AlarmOutcome outcome;
  outcome.positive = true;
  outcome.ue_time = days(10);
  outcome.alarm = days(10) - hours(1);  // only 1h of lead
  const ml::Confusion c = dimm_confusion({outcome}, test_windows());
  EXPECT_EQ(c.tp, 0u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.fp, 1u);  // the migration was still spent
}

TEST(DimmConfusion, TooEarlyAlarmIsMiss) {
  AlarmOutcome outcome;
  outcome.positive = true;
  outcome.ue_time = days(60);
  outcome.alarm = days(10);  // 50 days early: outside the validity window
  const ml::Confusion c = dimm_confusion({outcome}, test_windows());
  EXPECT_EQ(c.tp, 0u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.fp, 1u);
}

TEST(DimmConfusion, BoundaryLeadTimes) {
  features::PredictionWindows w = test_windows();
  AlarmOutcome exact;
  exact.positive = true;
  exact.ue_time = days(10);
  exact.alarm = days(10) - w.lead;  // exactly the minimum lead
  EXPECT_EQ(dimm_confusion({exact}, w).tp, 1u);

  AlarmOutcome edge;
  edge.positive = true;
  edge.ue_time = days(40);
  edge.alarm = days(40) - (w.lead + w.prediction);  // exactly max validity
  EXPECT_EQ(dimm_confusion({edge}, w).tp, 1u);
}

TEST(DimmConfusion, NegativesClassified) {
  AlarmOutcome quiet;
  quiet.positive = false;
  AlarmOutcome noisy;
  noisy.positive = false;
  noisy.alarm = days(3);
  const ml::Confusion c = dimm_confusion({quiet, noisy}, test_windows());
  EXPECT_EQ(c.tn, 1u);
  EXPECT_EQ(c.fp, 1u);
}

TEST(DimmConfusion, MissedPositiveIsFn) {
  AlarmOutcome missed;
  missed.positive = true;
  missed.ue_time = days(5);
  const ml::Confusion c = dimm_confusion({missed}, test_windows());
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.fp, 0u);
}

TEST(ScoredStream, FirstAlarmFindsFirstCrossing) {
  ScoredStream stream;
  stream.times = {days(1), days(2), days(3), days(4)};
  stream.scores = {0.1, 0.6, 0.4, 0.9};
  EXPECT_EQ(stream.first_alarm(0.5), days(2));
  EXPECT_EQ(stream.first_alarm(0.7), days(4));
  EXPECT_FALSE(stream.first_alarm(0.95).has_value());
}

TEST(TuneThreshold, SeparatesCleanStreams) {
  // Positive DIMM peaks at 0.9 well before its UE; negative peaks at 0.3.
  ScoreStreamSet streams;
  streams.offsets = {0, 2, 4};
  streams.times = {days(1), days(2), days(1), days(2)};
  streams.scores = {0.2, 0.9, 0.3, 0.25};

  AlarmOutcome pos_outcome;
  pos_outcome.positive = true;
  pos_outcome.ue_time = days(5);
  AlarmOutcome neg_outcome;
  neg_outcome.positive = false;

  const double threshold =
      tune_threshold(streams, {pos_outcome, neg_outcome}, test_windows());
  EXPECT_GT(threshold, 0.3);
  EXPECT_LE(threshold, 0.9);
}

TEST(TuneThreshold, EmptyStreamsFallBack) {
  EXPECT_DOUBLE_EQ(tune_threshold({}, {}, test_windows()), 0.5);
}

}  // namespace
}  // namespace memfp::core
