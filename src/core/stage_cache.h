// Content-addressed stage cache for the campaign engine (ROADMAP item 5).
//
// A campaign point is one (scenario, ECC, predictor, policy) configuration;
// its pipeline is a DAG of stages (simulate → extract → train → score →
// policy eval). Most sweep axes leave upstream stages untouched, so every
// stage artifact is keyed by an FNV-1a hash of *exactly* the config fields
// that stage depends on: two points that agree on those fields share the
// artifact, and perturbing one axis invalidates only the stages downstream
// of it. The campaign tests assert both properties through the per-stage
// hit/miss counters.
//
// The cache is deliberately not thread-safe: the campaign executor resolves
// stage instances serially at the top level (the artifact *bodies* fan out
// on the deterministic ThreadPool), which keeps counter values and artifact
// identity bit-reproducible at any thread count.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <utility>

#include "sim/trace_store.h"

namespace memfp::core {

/// The shareable stages of a campaign point's pipeline, in DAG order.
enum class Stage { kSimulate = 0, kExtract, kTrain, kScore };
inline constexpr std::size_t kStageCount = 4;

const char* stage_name(Stage stage);

/// FNV-1a fold builder for stage keys. Callers mix in exactly the config
/// axes the stage depends on (plus a format-version salt), in a fixed field
/// order; strings are length-prefixed so adjacent fields cannot collide by
/// concatenation.
class StageKey {
 public:
  StageKey& mix(std::uint64_t value) {
    hash_ = sim::fnv1a_u64(hash_, value);
    return *this;
  }
  StageKey& mix_signed(std::int64_t value) {
    return mix(static_cast<std::uint64_t>(value));
  }
  StageKey& mix_double(double value);
  StageKey& mix_string(std::string_view value);

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = sim::kFnvOffset;
};

struct StageCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Keyed artifact store with per-stage hit/miss accounting. Artifacts are
/// immutable once inserted (shared_ptr<const T>), so sharing one across
/// campaign points is safe by construction.
class StageCache {
 public:
  /// Returns the cached artifact for (stage, key), computing and inserting
  /// it via `compute` on a miss. The stored pointer is type-erased; all
  /// callers of one Stage must use one artifact type.
  template <typename T, typename Compute>
  std::shared_ptr<const T> get_or_compute(Stage stage, std::uint64_t key,
                                          Compute&& compute) {
    const MapKey map_key{static_cast<int>(stage), key};
    const auto it = entries_.find(map_key);
    if (it != entries_.end()) {
      ++counters_[static_cast<std::size_t>(stage)].hits;
      return std::static_pointer_cast<const T>(it->second);
    }
    ++counters_[static_cast<std::size_t>(stage)].misses;
    std::shared_ptr<const T> artifact = compute();
    entries_.emplace(map_key, artifact);
    return artifact;
  }

  const StageCounters& counters(Stage stage) const {
    return counters_[static_cast<std::size_t>(stage)];
  }
  std::uint64_t total_hits() const;
  std::uint64_t total_misses() const;
  std::size_t size() const { return entries_.size(); }

  /// Drops every artifact and zeroes the counters.
  void clear();

 private:
  using MapKey = std::pair<int, std::uint64_t>;
  // std::map, not unordered: deterministic iteration keeps every consumer
  // of the cache (including diagnostics) order-stable across runs.
  std::map<MapKey, std::shared_ptr<const void>> entries_;
  StageCounters counters_[kStageCount];
};

}  // namespace memfp::core
