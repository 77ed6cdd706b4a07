#include "core/stage_cache.h"

#include <bit>

namespace memfp::core {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kSimulate:
      return "simulate";
    case Stage::kExtract:
      return "extract";
    case Stage::kTrain:
      return "train";
    case Stage::kScore:
      return "score";
  }
  return "?";
}

StageKey& StageKey::mix_double(double value) {
  // +0.0 and -0.0 compare equal but differ in bits; canonicalize so configs
  // that compare equal key equal.
  if (value == 0.0) value = 0.0;
  return mix(std::bit_cast<std::uint64_t>(value));
}

StageKey& StageKey::mix_string(std::string_view value) {
  mix(value.size());
  hash_ = sim::fnv1a_bytes(hash_, value.data(), value.size());
  return *this;
}

std::uint64_t StageCache::total_hits() const {
  std::uint64_t total = 0;
  for (const StageCounters& c : counters_) total += c.hits;
  return total;
}

std::uint64_t StageCache::total_misses() const {
  std::uint64_t total = 0;
  for (const StageCounters& c : counters_) total += c.misses;
  return total;
}

void StageCache::clear() {
  entries_.clear();
  for (StageCounters& c : counters_) c = StageCounters{};
}

}  // namespace memfp::core
