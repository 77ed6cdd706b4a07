#include "core/campaign.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <system_error>

#include "common/check.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "features/extractor.h"
#include "ml/dataset.h"
#include "sim/fleet.h"

namespace memfp::core {
namespace {

/// Simulate-shard size in planned DIMMs: big enough to amortize shard
/// framing, small enough that one shard's resident traces stay bounded.
constexpr std::size_t kShardDimms = 4096;

/// Format-version salts, one per stage. Bump a salt when its stage's
/// artifact layout or semantics change — old keys then simply miss.
constexpr std::uint64_t kSimulateSalt = 0x51f01;
constexpr std::uint64_t kExtractSalt = 0x51f02;
constexpr std::uint64_t kTrainSalt = 0x51f03;

void mix_windows(StageKey& key, const features::PredictionWindows& windows) {
  key.mix_signed(windows.observation)
      .mix_signed(windows.lead)
      .mix_signed(windows.prediction)
      .mix_signed(windows.cadence);
}

void mix_fault_mix(StageKey& key, const std::vector<sim::FaultMixEntry>& mix) {
  key.mix(mix.size());
  for (const sim::FaultMixEntry& entry : mix) {
    key.mix(static_cast<std::uint64_t>(entry.mode))
        .mix(static_cast<std::uint64_t>(entry.scope))
        .mix_double(entry.weight);
  }
}

double resolve_threshold(const PolicySpec& policy, double tuned) {
  return policy.mode == PolicySpec::Threshold::kFixed
             ? policy.fixed_threshold
             : tuned * policy.tuned_scale;
}

using StageCounterSet = std::array<StageCounters, kStageCount>;

StageCounterSet stage_counters(const StageCache& cache) {
  StageCounterSet out;
  for (std::size_t st = 0; st < kStageCount; ++st) {
    out[st] = cache.counters(static_cast<Stage>(st));
  }
  return out;
}

/// Adds each stage's counter growth from `before` to `after` to `stats`.
void add_counters(CampaignRunStats& stats, const StageCounterSet& before,
                  const StageCounterSet& after) {
  StageCounters* const out[kStageCount] = {&stats.simulate, &stats.extract,
                                           &stats.train, &stats.score};
  for (std::size_t st = 0; st < kStageCount; ++st) {
    out[st]->hits += after[st].hits - before[st].hits;
    out[st]->misses += after[st].misses - before[st].misses;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Result hashing
// ---------------------------------------------------------------------------

std::uint64_t CampaignPointResult::result_hash() const {
  StageKey key;
  key.mix(scenario).mix(ecc).mix(predictor).mix(policy);
  key.mix_string(name);
  key.mix_double(threshold);
  key.mix(confusion.tp).mix(confusion.fp).mix(confusion.fn).mix(confusion.tn);
  key.mix_double(precision).mix_double(recall).mix_double(f1);
  key.mix(mitigation.true_positives)
      .mix(mitigation.false_positives)
      .mix(mitigation.false_negatives);
  key.mix_double(mitigation.interruptions_without_prediction)
      .mix_double(mitigation.interruptions_with_prediction)
      .mix_double(mitigation.realized_virr);
  key.mix(offline.dimms)
      .mix(offline.rows_offlined)
      .mix(offline.ces_avoided)
      .mix(offline.ues_total)
      .mix(offline.ues_avoided);
  key.mix_double(offline.prevention_rate);
  key.mix(attribution.size());
  for (const FaultClassAttribution& row : attribution) {
    key.mix(static_cast<std::uint64_t>(row.fault_class))
        .mix(row.dimms)
        .mix(row.true_positives)
        .mix(row.false_negatives)
        .mix(row.false_positives)
        .mix(row.true_negatives);
    key.mix_double(row.fn_rate).mix_double(row.fp_rate);
  }
  return key.value();
}

// ---------------------------------------------------------------------------
// Stage artifacts
// ---------------------------------------------------------------------------

struct CampaignEngine::FleetArtifact {
  std::vector<std::string> shard_files;
  /// First observed-DIMM index of each shard (ascending); the decode-back
  /// lookup for the page-offline replay.
  std::vector<std::size_t> shard_begin;

  struct DimmMeta {
    dram::DimmId id = 0;
    bool has_ce = false;      ///< logged CE history (ML eligibility)
    bool has_ue = false;
    bool predictable = false;  ///< UE with prior CE (model-level positive)
    SimTime ue_time = 0;       ///< valid when has_ue
    FaultClass fault_class = FaultClass::kNone;
  };
  std::vector<DimmMeta> dimms;  ///< observed DIMMs in id order

  SimTime horizon = 0;
  sim::ShardStats totals;
  std::uint64_t trace_hash = sim::kFnvOffset;
};

struct CampaignEngine::FeatureArtifact {
  std::shared_ptr<const FleetArtifact> fleet;

  /// Downsampled + class-rebalanced training rows.
  ml::Dataset train;

  /// Eval partitions: stream i belongs to fleet->dimms[dimm[i]].
  EvalPartition val;
  EvalPartition test;
};

struct CampaignEngine::ModelArtifact {
  std::shared_ptr<const FeatureArtifact> features;
  std::shared_ptr<const ml::BinaryClassifier> model;
};

struct CampaignEngine::ScoreArtifact {
  std::shared_ptr<const ModelArtifact> model;
  ScoredEval eval;
};

// ---------------------------------------------------------------------------
// Stage keys
// ---------------------------------------------------------------------------

std::uint64_t CampaignEngine::simulate_key(const ScenarioSpec& scenario,
                                           const EccSpec& ecc) const {
  StageKey key;
  key.mix(kSimulateSalt);
  const sim::ScenarioParams& p = scenario.params;
  key.mix(static_cast<std::uint64_t>(p.platform));
  key.mix_signed(p.horizon).mix(p.seed);
  key.mix_signed(p.ce_dimms)
      .mix_signed(p.predictable_ue_dimms)
      .mix_signed(p.sudden_ue_dimms)
      .mix_signed(p.servers);
  key.mix_double(p.censored_escalator_fraction)
      .mix_double(p.short_prelude_fraction)
      .mix_double(p.lookalike_fraction)
      .mix_double(p.two_fault_probability);
  mix_fault_mix(key, p.benign_mix);
  mix_fault_mix(key, p.escalator_mix);
  key.mix(static_cast<std::uint64_t>(ecc.ecc));
  key.mix_signed(ecc.bmc.storm_threshold)
      .mix_signed(ecc.bmc.storm_window)
      .mix_signed(ecc.bmc.suppression_period)
      .mix(ecc.bmc.max_logged_ces);
  return key.value();
}

std::uint64_t CampaignEngine::extract_key(
    const ScenarioSpec& scenario, const EccSpec& ecc,
    const PredictorSpec& predictor, const SamplingConfig& sampling) const {
  StageKey key;
  key.mix(kExtractSalt);
  key.mix(simulate_key(scenario, ecc));
  mix_windows(key, predictor.windows);
  key.mix_signed(predictor.eval_cadence);
  key.mix_double(sampling.test_fraction)
      .mix_double(sampling.validation_fraction);
  key.mix(sampling.max_negatives_per_dimm)
      .mix(sampling.max_positives_per_dimm);
  key.mix_double(sampling.positive_weight_share);
  key.mix(sampling.seed);
  return key.value();
}

std::uint64_t CampaignEngine::train_key(const ScenarioSpec& scenario,
                                        const EccSpec& ecc,
                                        const PredictorSpec& predictor,
                                        const SamplingConfig& sampling)
    const {
  StageKey key;
  key.mix(kTrainSalt);
  key.mix(extract_key(scenario, ecc, predictor, sampling));
  key.mix(static_cast<std::uint64_t>(predictor.algorithm));
  key.mix(predictor.train_seed);
  return key.value();
}

// ---------------------------------------------------------------------------
// Stage executors
// ---------------------------------------------------------------------------

std::shared_ptr<const CampaignEngine::FleetArtifact>
CampaignEngine::run_simulate(const ScenarioSpec& scenario, const EccSpec& ecc,
                             StageCache& cache) {
  const std::uint64_t key = simulate_key(scenario, ecc);
  return cache.get_or_compute<FleetArtifact>(Stage::kSimulate, key, [&] {
    auto artifact = std::make_shared<FleetArtifact>();
    const sim::ScenarioParams& params = scenario.params;
    artifact->horizon = params.horizon;

    char dirname[32];
    std::snprintf(dirname, sizeof(dirname), "sim-%016llx",
                  static_cast<unsigned long long>(key));
    const std::string dir =
        (std::filesystem::path(config_.store_dir) / dirname).string();
    std::filesystem::create_directories(dir);
    if (std::find(owned_dirs_.begin(), owned_dirs_.end(), dir) ==
        owned_dirs_.end()) {
      owned_dirs_.push_back(dir);
    }

    sim::DimmSimParams sim_params;
    sim_params.horizon = params.horizon;
    sim_params.ecc = ecc.ecc;
    sim_params.bmc = ecc.bmc;
    const sim::DimmSimulator simulator(params.platform, sim_params);

    sim::FleetPlanner planner(params);
    const std::size_t total = planner.plan().total();
    const std::size_t shards =
        std::max<std::size_t>(1, (total + kShardDimms - 1) / kShardDimms);
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t begin = s * total / shards;
      const std::size_t end = (s + 1) * total / shards;
      const std::vector<sim::PlannedDimm> jobs = planner.take(end - begin);
      if (jobs.empty()) continue;

      const std::string path =
          sim::shard_path(dir, artifact->shard_files.size());
      const SpilledShard shard = simulate_shard(jobs, params, simulator, path,
                                                artifact->trace_hash);
      std::vector<FleetArtifact::DimmMeta> metas(shard.observed.size());
      ThreadPool::global().parallel_for(
          metas.size(),
          [&](std::size_t i) {
            const sim::DimmTrace& trace = shard.observed[i];
            metas[i] = {.id = trace.id,
                        .has_ce = !trace.ces.empty(),
                        .has_ue = trace.has_ue(),
                        .predictable = trace.predictable_ue(),
                        .ue_time = trace.ue ? trace.ue->time : 0,
                        .fault_class = dominant_fault_class(trace)};
          },
          /*grain=*/1);
      artifact->shard_begin.push_back(artifact->dimms.size());
      artifact->dimms.insert(artifact->dimms.end(), metas.begin(),
                             metas.end());
      artifact->totals.add(shard.stats);
      artifact->shard_files.push_back(path);
    }
    MEMFP_CHECK_EQ(planner.produced(), total);
    MEMFP_INFO << "campaign simulate[" << scenario.name << "/" << ecc.name
               << "]: " << artifact->dimms.size() << " observed of " << total
               << " planned, " << artifact->totals.raw_records()
               << " records, trace hash " << artifact->trace_hash;
    return artifact;
  });
}

std::shared_ptr<const CampaignEngine::FeatureArtifact>
CampaignEngine::run_extract(const ScenarioSpec& scenario, const EccSpec& ecc,
                            const PredictorSpec& predictor,
                            const SamplingConfig& sampling,
                            StageCache& cache) {
  const std::uint64_t key = extract_key(scenario, ecc, predictor, sampling);
  return cache.get_or_compute<FeatureArtifact>(Stage::kExtract, key, [&] {
    const std::shared_ptr<const FleetArtifact> fleet =
        run_simulate(scenario, ecc, cache);
    auto artifact = std::make_shared<FeatureArtifact>();
    artifact->fleet = fleet;

    // Train/val/test roles. The split depends on the fleet and the sampling
    // seed only — never on windows — so predictors that differ in window
    // config are still evaluated on the same held-out DIMMs. No-CE DIMMs
    // (sudden UEs) carry no trainable telemetry and are evaluated with the
    // test DIMMs: the policy-level protocol charges their UEs to the result
    // (class kSudden in the attribution table).
    std::vector<SplitDimm> split;
    for (const FleetArtifact::DimmMeta& meta : fleet->dimms) {
      split.push_back({meta.id, meta.has_ce, meta.predictable});
    }
    Rng split_rng(sim::fnv1a_u64(simulate_key(scenario, ecc), sampling.seed));
    const std::vector<DimmRole> roles =
        split_dimm_roles(split, sampling, split_rng);

    const features::FeatureExtractor train_extractor(predictor.windows);
    features::PredictionWindows eval_windows = predictor.windows;
    eval_windows.cadence = predictor.eval_cadence;
    const features::FeatureExtractor eval_extractor(eval_windows);

    SplitPartitions parts;
    Rng sample_rng(sim::fnv1a_u64(key, 0x5a3fULL));
    // Stream each shard back and fold it in id order.
    std::size_t base = 0;
    for (const std::string& path : fleet->shard_files) {
      std::vector<std::vector<features::Sample>> slots = extract_shard(
          path, fleet->horizon,
          [&](std::size_t i) -> const features::FeatureExtractor& {
            return roles[base + i] == DimmRole::kTrain ? train_extractor
                                                       : eval_extractor;
          });
      for (std::size_t i = 0; i < slots.size(); ++i) {
        const std::size_t g = base + i;
        const FleetArtifact::DimmMeta& meta = fleet->dimms[g];
        parts.add(roles[g], g,
                  {.positive = meta.predictable,
                   .ue_time = meta.ue_time,
                   .alarm = std::nullopt},
                  std::move(slots[i]), sampling, sample_rng);
        slots[i].clear();
      }
      base += slots.size();
    }
    MEMFP_CHECK_EQ(base, fleet->dimms.size());

    artifact->train = ml::make_dataset(
        features::SampleSet{train_extractor.schema(), std::move(parts.train)});
    artifact->val = std::move(parts.val);
    artifact->test = std::move(parts.test);
    ml::rebalance_weights(artifact->train, sampling.positive_weight_share);
    MEMFP_INFO << "campaign extract[" << scenario.name << "/" << ecc.name
               << "/" << predictor.name << "]: " << artifact->train.size()
               << " train rows, " << artifact->val.dimm.size() << " val / "
               << artifact->test.dimm.size() << " test DIMMs";
    return artifact;
  });
}

std::shared_ptr<const CampaignEngine::ModelArtifact> CampaignEngine::run_train(
    const ScenarioSpec& scenario, const EccSpec& ecc,
    const PredictorSpec& predictor, const SamplingConfig& sampling,
    StageCache& cache) {
  const std::uint64_t key = train_key(scenario, ecc, predictor, sampling);
  return cache.get_or_compute<ModelArtifact>(Stage::kTrain, key, [&] {
    MEMFP_CHECK(predictor.algorithm != Algorithm::kRiskyCePattern)
        << "campaign: the predictor axis needs a feature model; the "
           "trace-based rule baseline has no train/score stages to share";
    const std::shared_ptr<const FeatureArtifact> features =
        run_extract(scenario, ecc, predictor, sampling, cache);
    auto artifact = std::make_shared<ModelArtifact>();
    artifact->features = features;
    std::unique_ptr<ml::BinaryClassifier> model =
        make_model(predictor.algorithm);
    // The train key already folds every upstream axis, so it doubles as the
    // training-stream seed: identical configs reproduce the identical model
    // on any path.
    Rng rng(sim::fnv1a_u64(key, predictor.train_seed));
    model->fit(features->train, rng);
    artifact->model = std::move(model);
    return artifact;
  });
}

std::shared_ptr<const CampaignEngine::ScoreArtifact> CampaignEngine::run_score(
    const ScenarioSpec& scenario, const EccSpec& ecc,
    const PredictorSpec& predictor, const SamplingConfig& sampling,
    StageCache& cache) {
  const std::uint64_t key = train_key(scenario, ecc, predictor, sampling);
  return cache.get_or_compute<ScoreArtifact>(Stage::kScore, key, [&] {
    const std::shared_ptr<const ModelArtifact> model =
        run_train(scenario, ecc, predictor, sampling, cache);
    const FeatureArtifact& parts = *model->features;
    auto artifact = std::make_shared<ScoreArtifact>();
    artifact->model = model;

    // Tune the F1 threshold on the validation fold (model-level positives:
    // predictable UEs), once per score artifact — every policy deriving
    // its threshold from the tuned point reuses this value.
    artifact->eval =
        score_eval(*model->model, parts.val, parts.test, predictor.windows);
    return artifact;
  });
}

// ---------------------------------------------------------------------------
// Policy evaluation
// ---------------------------------------------------------------------------

std::vector<std::pair<std::size_t, sim::DimmTrace>>
CampaignEngine::load_ue_test_traces(const ScoreArtifact& scored) const {
  const FleetArtifact& fleet = *scored.model->features->fleet;
  const std::vector<std::size_t>& test_dimm = scored.model->features->test.dimm;
  std::vector<std::pair<std::size_t, sim::DimmTrace>> traces;
  std::unique_ptr<sim::TraceReader> reader;
  std::size_t open_shard = fleet.shard_files.size();
  // test_dimm is ascending (streams were appended in id order), so each
  // shard is opened at most once.
  for (std::size_t i = 0; i < test_dimm.size(); ++i) {
    const std::size_t g = test_dimm[i];
    if (!fleet.dimms[g].has_ue) continue;
    const auto it = std::upper_bound(fleet.shard_begin.begin(),
                                     fleet.shard_begin.end(), g);
    const auto shard =
        static_cast<std::size_t>(it - fleet.shard_begin.begin()) - 1;
    if (shard != open_shard) {
      reader = std::make_unique<sim::TraceReader>(fleet.shard_files[shard]);
      open_shard = shard;
    }
    traces.emplace_back(i, reader->read_dimm(g - fleet.shard_begin[shard]));
  }
  return traces;
}

CampaignPointResult CampaignEngine::evaluate_policy(
    const CampaignSpec& spec, std::size_t s, std::size_t e, std::size_t p,
    std::size_t q, const ScoreArtifact& scored, double threshold,
    std::span<const std::optional<SimTime>> alarms,
    const std::vector<std::pair<std::size_t, sim::DimmTrace>>& ue_traces)
    const {
  const PolicySpec& policy = spec.policies[q];
  const PredictorSpec& predictor = spec.predictors[p];
  const FleetArtifact& fleet = *scored.model->features->fleet;

  CampaignPointResult point;
  point.scenario = s;
  point.ecc = e;
  point.predictor = p;
  point.policy = q;
  point.name = spec.scenarios[s].name + "/" + spec.eccs[e].name + "/" +
               predictor.name + "/" + policy.name;
  point.threshold = threshold;

  const std::size_t n = scored.eval.test.streams();
  MEMFP_CHECK_EQ(alarms.size(), n);
  std::vector<AlarmOutcome> outcomes(n);
  std::vector<FaultClass> classes(n);
  for (std::size_t i = 0; i < n; ++i) {
    const FleetArtifact::DimmMeta& meta =
        fleet.dimms[scored.model->features->test.dimm[i]];
    // Policy-level ground truth: any UE counts, including sudden ones the
    // predictor cannot see (their empty streams never alarm → FN, charged
    // to class kSudden in the attribution table).
    outcomes[i].positive = meta.has_ue;
    outcomes[i].ue_time = meta.ue_time;
    outcomes[i].alarm = alarms[i];
    classes[i] = meta.fault_class;
  }

  point.confusion = dimm_confusion(outcomes, predictor.windows);
  point.precision = point.confusion.precision();
  point.recall = point.confusion.recall();
  point.f1 = point.confusion.f1();
  point.attribution =
      attribute_outcomes(classes, outcomes, predictor.windows);
  point.mitigation =
      mlops::account_confusion(point.confusion.tp, point.confusion.fp,
                               point.confusion.fn, policy.mitigation);

  // Page-offline replay over the UE-bearing test DIMMs: would the UE's row
  // have been retired in time under this policy?
  sim::FleetOfflineReport offline;
  offline.dimms = ue_traces.size();
  for (const auto& [stream, trace] : ue_traces) {
    const std::optional<SimTime> alarm =
        policy.prediction_guided_offlining ? alarms[stream] : std::nullopt;
    const sim::OfflineOutcome outcome =
        sim::apply_page_offlining(trace, policy.offline, alarm);
    offline.rows_offlined += static_cast<std::size_t>(outcome.rows_offlined);
    offline.ces_avoided += outcome.ces_avoided;
    ++offline.ues_total;
    offline.ues_avoided += outcome.ue_row_offlined ? 1 : 0;
  }
  offline.prevention_rate =
      offline.ues_total == 0
          ? 0.0
          : static_cast<double>(offline.ues_avoided) /
                static_cast<double>(offline.ues_total);
  point.offline = offline;
  return point;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

CampaignEngine::CampaignEngine(CampaignConfig config)
    : config_(std::move(config)) {
  MEMFP_CHECK(!config_.store_dir.empty())
      << "campaign: config.store_dir must name a spill directory";
}

CampaignEngine::~CampaignEngine() {
  if (config_.keep_store) return;
  for (const std::string& dir : owned_dirs_) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);  // best-effort cleanup
  }
}

CampaignResult CampaignEngine::run(const CampaignSpec& spec) {
  MEMFP_CHECK_GT(spec.points(), 0u) << "campaign: empty sweep";
  ThreadPool::ScopedLimit limit(config_.num_threads);

  CampaignResult result;
  result.stats.points = spec.points();

  if (config_.share_stages) {
    const StageCounterSet before = stage_counters(cache_);
    for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
      for (std::size_t e = 0; e < spec.eccs.size(); ++e) {
        for (std::size_t p = 0; p < spec.predictors.size(); ++p) {
          const std::shared_ptr<const ScoreArtifact> scored = run_score(
              spec.scenarios[s], spec.eccs[e], spec.predictors[p],
              spec.sampling, cache_);
          // The whole policy axis collapses to one vectorized sweep over
          // the cached score streams.
          std::vector<double> thresholds;
          thresholds.reserve(spec.policies.size());
          for (const PolicySpec& policy : spec.policies) {
            thresholds.push_back(
                resolve_threshold(policy, scored->eval.threshold));
          }
          const std::vector<std::optional<SimTime>> alarms =
              scored->eval.test.first_alarms(thresholds);
          ++result.stats.policy_sweeps;
          const auto ue_traces = load_ue_test_traces(*scored);
          const std::size_t n = scored->eval.test.streams();
          for (std::size_t q = 0; q < spec.policies.size(); ++q) {
            result.points.push_back(evaluate_policy(
                spec, s, e, p, q, *scored, thresholds[q],
                std::span(alarms).subspan(q * n, n), ue_traces));
          }
        }
      }
    }
    add_counters(result.stats, before, stage_counters(cache_));
  } else {
    // Naive per-config pipeline: a fresh cache per point re-runs every
    // stage, and the policy is evaluated by a scalar per-threshold replay.
    for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
      for (std::size_t e = 0; e < spec.eccs.size(); ++e) {
        for (std::size_t p = 0; p < spec.predictors.size(); ++p) {
          for (std::size_t q = 0; q < spec.policies.size(); ++q) {
            StageCache local;
            const std::shared_ptr<const ScoreArtifact> scored = run_score(
                spec.scenarios[s], spec.eccs[e], spec.predictors[p],
                spec.sampling, local);
            const double threshold = resolve_threshold(
                spec.policies[q], scored->eval.threshold);
            const std::size_t n = scored->eval.test.streams();
            std::vector<std::optional<SimTime>> alarms(n);
            for (std::size_t i = 0; i < n; ++i) {
              alarms[i] = scored->eval.test.stream(i).first_alarm(threshold);
            }
            ++result.stats.policy_sweeps;
            const auto ue_traces = load_ue_test_traces(*scored);
            result.points.push_back(evaluate_policy(
                spec, s, e, p, q, *scored, threshold, alarms, ue_traces));
            add_counters(result.stats, {}, stage_counters(local));
          }
        }
      }
    }
  }

  for (const CampaignPointResult& point : result.points) {
    result.campaign_hash =
        sim::fnv1a_u64(result.campaign_hash, point.result_hash());
  }
  MEMFP_INFO << "campaign " << spec.name << ": " << result.points.size()
             << " points, simulate " << result.stats.simulate.misses
             << " miss/" << result.stats.simulate.hits << " hit, extract "
             << result.stats.extract.misses << "/"
             << result.stats.extract.hits << ", train "
             << result.stats.train.misses << "/" << result.stats.train.hits
             << ", score " << result.stats.score.misses << "/"
             << result.stats.score.hits << ", " << result.stats.policy_sweeps
             << " policy sweeps";
  return result;
}

}  // namespace memfp::core
