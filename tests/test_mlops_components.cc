#include <gtest/gtest.h>

#include <filesystem>

#include "mlops/alarm.h"
#include "mlops/data_lake.h"
#include "sim/trace_store.h"
#include "mlops/feature_store.h"
#include "mlops/model_registry.h"
#include "mlops/monitoring.h"
#include "sim/fleet.h"

namespace memfp::mlops {
namespace {

TEST(DataLake, IngestAndRetrieve) {
  DataLake lake;
  sim::FleetTrace fleet;
  fleet.platform = dram::Platform::kK920;
  sim::DimmTrace dimm;
  dram::CeEvent ce;
  ce.time = days(1);
  ce.pattern.add({0, 0});
  dimm.ces.push_back(ce);
  fleet.dimms.push_back(dimm);
  lake.ingest("bmc/k920/h1", std::move(fleet));

  EXPECT_TRUE(lake.contains("bmc/k920/h1"));
  EXPECT_FALSE(lake.contains("bmc/k920/h2"));
  EXPECT_EQ(lake.get("bmc/k920/h1").platform, dram::Platform::kK920);
  EXPECT_EQ(lake.record_count(), 1u);
  EXPECT_THROW(lake.get("missing"), std::out_of_range);
  EXPECT_EQ(lake.partitions().size(), 1u);
}

TEST(DataLake, ReIngestReplaces) {
  DataLake lake;
  lake.ingest("p", sim::FleetTrace{});
  sim::FleetTrace bigger;
  bigger.dimms.resize(3);
  lake.ingest("p", std::move(bigger));
  EXPECT_EQ(lake.get("p").dimms.size(), 3u);
  EXPECT_EQ(lake.partitions().size(), 1u);
}

sim::FleetTrace tiny_fleet(int dimms, int ces_per_dimm) {
  sim::FleetTrace fleet;
  fleet.platform = dram::Platform::kIntelPurley;
  fleet.horizon = days(30);
  for (int d = 0; d < dimms; ++d) {
    sim::DimmTrace dimm;
    dimm.id = static_cast<dram::DimmId>(d);
    dimm.config.part_number = "PN-tiny";
    for (int i = 0; i < ces_per_dimm; ++i) {
      dram::CeEvent ce;
      ce.time = days(1) + hours(d) + minutes(i);
      ce.pattern.add({0, 0});
      dimm.ces.push_back(ce);
    }
    fleet.dimms.push_back(std::move(dimm));
  }
  return fleet;
}

TEST(DataLake, RecordCountCachedAcrossIdempotentBackfill) {
  DataLake lake;
  lake.ingest("p1", tiny_fleet(3, 4));
  lake.ingest("p2", tiny_fleet(2, 5));
  EXPECT_EQ(lake.record_count(), 3u * 4u + 2u * 5u);

  // Idempotent backfill: re-ingesting the same snapshot must replace, not
  // double-count (the cached counter regression this guards against).
  lake.ingest("p1", tiny_fleet(3, 4));
  EXPECT_EQ(lake.record_count(), 3u * 4u + 2u * 5u);
  lake.ingest("p1", tiny_fleet(1, 2));
  EXPECT_EQ(lake.record_count(), 1u * 2u + 2u * 5u);
}

TEST(DataLake, SpillOnIngestRoundTrip) {
  const auto dir =
      std::filesystem::temp_directory_path() / "memfp_lake_spill_test";
  std::filesystem::remove_all(dir);

  DataLake lake;
  lake.set_spill_policy({dir.string(), /*max_resident_dimms=*/2,
                         /*dimms_per_shard=*/2});
  const sim::FleetTrace original = tiny_fleet(5, 3);
  lake.ingest("bmc/purley/big", tiny_fleet(5, 3));

  EXPECT_TRUE(lake.spilled("bmc/purley/big"));
  EXPECT_EQ(lake.record_count(), 15u);
  EXPECT_THROW(lake.get("bmc/purley/big"), std::logic_error);
  const DataLake::PartitionInfo info = lake.info("bmc/purley/big");
  EXPECT_EQ(info.dimms, 5u);
  EXPECT_EQ(info.horizon, days(30));
  EXPECT_TRUE(info.spilled);

  // Stream-on-read sees the identical DIMM sequence...
  std::size_t next = 0;
  lake.for_each_dimm("bmc/purley/big", [&](const sim::DimmTrace& dimm) {
    ASSERT_LT(next, original.dimms.size());
    EXPECT_EQ(sim::trace_content_hash(dimm),
              sim::trace_content_hash(original.dimms[next]));
    ++next;
  });
  EXPECT_EQ(next, original.dimms.size());

  // ...and materialize round-trips the whole snapshot.
  const sim::FleetTrace decoded = lake.materialize("bmc/purley/big");
  ASSERT_EQ(decoded.dimms.size(), original.dimms.size());
  EXPECT_EQ(decoded.horizon, original.horizon);

  // A small backfill replaces the spill with a resident partition, deletes
  // the dead shard files, and prunes the emptied generation directory.
  lake.ingest("bmc/purley/big", tiny_fleet(1, 1));
  EXPECT_FALSE(lake.spilled("bmc/purley/big"));
  EXPECT_EQ(lake.record_count(), 1u);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(DataLake, ReIngestSpilledPartitionWithSpill) {
  const auto dir =
      std::filesystem::temp_directory_path() / "memfp_lake_respill_test";
  std::filesystem::remove_all(dir);

  DataLake lake;
  lake.set_spill_policy({dir.string(), /*max_resident_dimms=*/2,
                         /*dimms_per_shard=*/2});
  lake.ingest("p", tiny_fleet(5, 3));
  ASSERT_TRUE(lake.spilled("p"));

  // Idempotent backfill of a live spill: the replacement generation must
  // survive the deletion of the old generation's shard files (the two must
  // never share paths).
  const sim::FleetTrace second = tiny_fleet(6, 2);
  lake.ingest("p", tiny_fleet(6, 2));
  EXPECT_TRUE(lake.spilled("p"));
  EXPECT_EQ(lake.record_count(), 12u);
  std::size_t next = 0;
  lake.for_each_dimm("p", [&](const sim::DimmTrace& dimm) {
    ASSERT_LT(next, second.dimms.size());
    EXPECT_EQ(sim::trace_content_hash(dimm),
              sim::trace_content_hash(second.dimms[next]));
    ++next;
  });
  EXPECT_EQ(next, second.dimms.size());
  EXPECT_EQ(lake.materialize("p").dimms.size(), 6u);
  std::filesystem::remove_all(dir);
}

TEST(DataLake, SpillDirsCollisionFreeAcrossPartitions) {
  const auto dir =
      std::filesystem::temp_directory_path() / "memfp_lake_collide_test";
  std::filesystem::remove_all(dir);

  // "a/b" and "a_b" sanitize to the same leaf; their spills must not share
  // shard files (neither overwriting on ingest nor deleting on replace).
  DataLake lake;
  lake.set_spill_policy({dir.string(), /*max_resident_dimms=*/0,
                         /*dimms_per_shard=*/2});
  const sim::FleetTrace slash = tiny_fleet(3, 2);
  const sim::FleetTrace underscore = tiny_fleet(3, 5);
  lake.ingest("a/b", tiny_fleet(3, 2));
  lake.ingest("a_b", tiny_fleet(3, 5));

  std::size_t next = 0;
  lake.for_each_dimm("a/b", [&](const sim::DimmTrace& dimm) {
    ASSERT_LT(next, slash.dimms.size());
    EXPECT_EQ(sim::trace_content_hash(dimm),
              sim::trace_content_hash(slash.dimms[next]));
    ++next;
  });
  EXPECT_EQ(next, slash.dimms.size());

  // Replacing one partition must leave the other's files intact.
  lake.ingest("a/b", tiny_fleet(4, 1));
  next = 0;
  lake.for_each_dimm("a_b", [&](const sim::DimmTrace& dimm) {
    ASSERT_LT(next, underscore.dimms.size());
    EXPECT_EQ(sim::trace_content_hash(dimm),
              sim::trace_content_hash(underscore.dimms[next]));
    ++next;
  });
  EXPECT_EQ(next, underscore.dimms.size());
  std::filesystem::remove_all(dir);
}

TEST(DataLake, AdoptExistingShardSet) {
  const auto dir =
      std::filesystem::temp_directory_path() / "memfp_lake_adopt_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const sim::FleetTrace fleet = tiny_fleet(4, 2);
  {
    sim::ShardWriter writer(sim::shard_path(dir.string(), 0),
                            fleet.platform, fleet.horizon);
    for (const sim::DimmTrace& dimm : fleet.dimms) writer.append(dimm);
    writer.finish();
  }
  DataLake lake;
  lake.ingest_shards("adopted", dir.string());
  EXPECT_TRUE(lake.spilled("adopted"));
  EXPECT_EQ(lake.record_count(), 8u);
  EXPECT_EQ(lake.info("adopted").dimms, 4u);
  EXPECT_THROW(lake.ingest_shards("empty", (dir / "nope").string()),
               std::invalid_argument);
  std::filesystem::remove_all(dir);
}

TEST(FeatureStore, CatalogListsAllFeatures) {
  FeatureStore store;
  const Json catalog = store.catalog();
  EXPECT_EQ(catalog.at("features").as_array().size(), store.schema().size());
  // Categorical entries carry their cardinality.
  bool saw_categorical = false;
  for (const Json& entry : catalog.at("features").as_array()) {
    if (entry.at("type").as_string() == "categorical") {
      saw_categorical = true;
      EXPECT_GT(entry.at("cardinality").as_int(), 1);
    }
  }
  EXPECT_TRUE(saw_categorical);
}

TEST(FeatureStore, TrainingServingConsistency) {
  FeatureStore store;
  const sim::FleetTrace fleet =
      sim::simulate_fleet(sim::purley_scenario().scaled(0.02));
  int checked = 0;
  for (const sim::DimmTrace& dimm : fleet.dimms) {
    if (dimm.ces.empty()) continue;
    for (SimTime t : {days(30), days(100), days(200)}) {
      EXPECT_TRUE(store.check_consistency(dimm, t, fleet.horizon))
          << "dimm " << dimm.id << " t=" << t;
    }
    if (++checked >= 10) break;
  }
  EXPECT_GT(checked, 0);
}

TEST(ModelRegistry, FirstPromotionAlwaysPasses) {
  ModelRegistry registry;
  ModelVersion v;
  v.platform = dram::Platform::kIntelPurley;
  v.benchmark_f1 = 0.5;
  const int id = registry.add(std::move(v));
  EXPECT_TRUE(registry.promote(id));
  ASSERT_NE(registry.production(dram::Platform::kIntelPurley), nullptr);
  EXPECT_EQ(registry.production(dram::Platform::kIntelPurley)->version, id);
}

TEST(ModelRegistry, GateRejectsWorseCandidate) {
  ModelRegistry registry;
  ModelVersion good;
  good.platform = dram::Platform::kIntelPurley;
  good.benchmark_f1 = 0.6;
  const int good_id = registry.add(std::move(good));
  registry.promote(good_id);

  ModelVersion worse;
  worse.platform = dram::Platform::kIntelPurley;
  worse.benchmark_f1 = 0.55;
  const int worse_id = registry.add(std::move(worse));
  EXPECT_FALSE(registry.promote(worse_id, 0.0));
  EXPECT_EQ(registry.production(dram::Platform::kIntelPurley)->version,
            good_id);
  EXPECT_EQ(registry.get(worse_id)->stage, ModelStage::kStaging);
}

TEST(ModelRegistry, PromotionArchivesIncumbent) {
  ModelRegistry registry;
  ModelVersion first;
  first.platform = dram::Platform::kK920;
  first.benchmark_f1 = 0.4;
  const int first_id = registry.add(std::move(first));
  registry.promote(first_id);

  ModelVersion second;
  second.platform = dram::Platform::kK920;
  second.benchmark_f1 = 0.5;
  const int second_id = registry.add(std::move(second));
  EXPECT_TRUE(registry.promote(second_id));
  EXPECT_EQ(registry.get(first_id)->stage, ModelStage::kArchived);
  EXPECT_EQ(registry.production(dram::Platform::kK920)->version, second_id);
}

TEST(ModelRegistry, PlatformsAreIndependent) {
  ModelRegistry registry;
  ModelVersion purley;
  purley.platform = dram::Platform::kIntelPurley;
  purley.benchmark_f1 = 0.9;
  registry.promote(registry.add(std::move(purley)));
  EXPECT_EQ(registry.production(dram::Platform::kK920), nullptr);

  ModelVersion k920;
  k920.platform = dram::Platform::kK920;
  k920.benchmark_f1 = 0.1;  // worse than Purley's, but a different platform
  const int id = registry.add(std::move(k920));
  EXPECT_TRUE(registry.promote(id));
}

TEST(ModelRegistry, JsonRoundTrip) {
  ModelRegistry registry;
  ModelVersion v;
  v.platform = dram::Platform::kIntelWhitley;
  v.algorithm = "LightGBM";
  v.benchmark_f1 = 0.49;
  v.threshold = 0.8;
  v.artifact = Json::object().set("type", "gbdt");
  const int id = registry.add(std::move(v));
  registry.promote(id);

  const ModelRegistry restored =
      ModelRegistry::from_json(Json::parse(registry.to_json().dump()));
  const ModelVersion* production =
      restored.production(dram::Platform::kIntelWhitley);
  ASSERT_NE(production, nullptr);
  EXPECT_EQ(production->algorithm, "LightGBM");
  EXPECT_DOUBLE_EQ(production->threshold, 0.8);
  // Version numbering continues after the restore.
  ModelRegistry mutable_restored = restored;
  ModelVersion next;
  next.platform = dram::Platform::kIntelWhitley;
  EXPECT_GT(mutable_restored.add(std::move(next)), id);
}

TEST(ModelRegistry, FromJsonRejectsVersionOutsideInt) {
  ModelRegistry registry;
  registry.add(ModelVersion{});
  Json json = Json::parse(registry.to_json().dump());
  json.set("next_version", 4294967297.0);
  EXPECT_THROW(ModelRegistry::from_json(json), std::runtime_error);
}

TEST(AlarmSystem, CoalescesRepeatAlarms) {
  AlarmSystem alarms;
  alarms.raise(1, days(1), 0.9);
  alarms.raise(1, days(2), 0.95);
  alarms.raise(2, days(3), 0.8);
  EXPECT_EQ(alarms.alarms().size(), 2u);
  EXPECT_EQ(*alarms.first_alarm(1), days(1));
  EXPECT_FALSE(alarms.first_alarm(99).has_value());
}

TEST(Mitigation, AccountingMatchesPaperFormula) {
  // 2 timely TPs, 1 FP, 1 missed FN.
  sim::FleetTrace fleet;
  AlarmSystem alarms;
  features::PredictionWindows windows;
  for (int i = 0; i < 2; ++i) {
    sim::DimmTrace dimm;
    dimm.id = static_cast<dram::DimmId>(i);
    dram::CeEvent ce;
    ce.time = days(1);
    ce.pattern.add({0, 0});
    dimm.ces.push_back(ce);
    dimm.ue = dram::UeEvent{};
    dimm.ue->time = days(20);
    dimm.ue->had_prior_ce = true;
    fleet.dimms.push_back(dimm);
    alarms.raise(dimm.id, days(19), 0.9);
  }
  sim::DimmTrace missed = fleet.dimms[0];
  missed.id = 10;
  fleet.dimms.push_back(missed);
  sim::DimmTrace healthy;
  healthy.id = 20;
  fleet.dimms.push_back(healthy);
  alarms.raise(20, days(5), 0.7);

  MitigationPolicy policy;
  policy.vms_per_server = 10.0;
  policy.cold_migration_fraction = 0.1;
  const MitigationReport report =
      account_mitigations(fleet, alarms, windows, policy);
  EXPECT_EQ(report.true_positives, 2u);
  EXPECT_EQ(report.false_positives, 1u);
  EXPECT_EQ(report.false_negatives, 1u);
  EXPECT_DOUBLE_EQ(report.interruptions_without_prediction, 30.0);
  EXPECT_DOUBLE_EQ(report.interruptions_with_prediction, 10.0 * 0.1 * 3 + 10.0);
  EXPECT_NEAR(report.realized_virr, (30.0 - 13.0) / 30.0, 1e-12);
}

TEST(Monitoring, CountersAndFeedback) {
  Monitoring monitoring;
  monitoring.record_ingest(100);
  monitoring.record_prediction(0.2);
  monitoring.record_prediction(0.9);
  monitoring.record_alarm();
  monitoring.record_alarm_feedback(true);
  monitoring.record_alarm_feedback(false);
  monitoring.record_missed_failure();
  EXPECT_EQ(monitoring.ingested(), 100u);
  EXPECT_EQ(monitoring.predictions(), 2u);
  EXPECT_EQ(monitoring.alarms(), 1u);
  EXPECT_DOUBLE_EQ(monitoring.online_precision(), 0.5);
  EXPECT_DOUBLE_EQ(monitoring.online_recall(), 0.5);
  EXPECT_NE(monitoring.dashboard().find("alarms raised"), std::string::npos);
}

TEST(Monitoring, DriftDetection) {
  Monitoring monitoring;
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    monitoring.record_prediction(rng.uniform(0.0, 0.3));
  }
  monitoring.freeze_reference();
  // Same distribution: no drift.
  for (int i = 0; i < 2000; ++i) {
    monitoring.record_prediction(rng.uniform(0.0, 0.3));
  }
  EXPECT_FALSE(monitoring.drift_detected());
  // Shifted scores: drift.
  for (int i = 0; i < 4000; ++i) {
    monitoring.record_prediction(rng.uniform(0.5, 1.0));
  }
  EXPECT_TRUE(monitoring.drift_detected());
}

}  // namespace
}  // namespace memfp::mlops
