#include "mlops/model_registry.h"

#include "common/logging.h"

namespace memfp::mlops {

const char* stage_name(ModelStage stage) {
  switch (stage) {
    case ModelStage::kStaging:
      return "staging";
    case ModelStage::kProduction:
      return "production";
    case ModelStage::kArchived:
      return "archived";
  }
  return "?";
}

int ModelRegistry::add(ModelVersion version) {
  version.version = next_version_++;
  version.stage = ModelStage::kStaging;
  const int id = version.version;
  versions_[id] = std::move(version);
  return id;
}

bool ModelRegistry::promote(int version, double min_improvement) {
  const auto it = versions_.find(version);
  if (it == versions_.end()) return false;
  ModelVersion& candidate = it->second;
  ModelVersion* incumbent = nullptr;
  for (auto& [id, entry] : versions_) {
    if (entry.platform == candidate.platform &&
        entry.stage == ModelStage::kProduction) {
      incumbent = &entry;
    }
  }
  if (incumbent != nullptr &&
      candidate.benchmark_f1 < incumbent->benchmark_f1 + min_improvement) {
    MEMFP_INFO << "registry: gate rejected v" << version << " (F1 "
               << candidate.benchmark_f1 << " vs incumbent "
               << incumbent->benchmark_f1 << ")";
    return false;
  }
  if (incumbent != nullptr) incumbent->stage = ModelStage::kArchived;
  candidate.stage = ModelStage::kProduction;
  MEMFP_INFO << "registry: promoted v" << version << " to production";
  return true;
}

const ModelVersion* ModelRegistry::production(dram::Platform platform) const {
  for (const auto& [id, entry] : versions_) {
    if (entry.platform == platform && entry.stage == ModelStage::kProduction) {
      return &entry;
    }
  }
  return nullptr;
}

const ModelVersion* ModelRegistry::get(int version) const {
  const auto it = versions_.find(version);
  return it == versions_.end() ? nullptr : &it->second;
}

std::vector<const ModelVersion*> ModelRegistry::versions(
    dram::Platform platform) const {
  std::vector<const ModelVersion*> out;
  for (const auto& [id, entry] : versions_) {
    if (entry.platform == platform) out.push_back(&entry);
  }
  return out;
}

Json ModelRegistry::to_json() const {
  Json entries = Json::array();
  for (const auto& [id, entry] : versions_) {
    Json e = Json::object();
    e.set("version", entry.version);
    e.set("platform", dram::platform_name(entry.platform));
    e.set("algorithm", entry.algorithm);
    e.set("f1", entry.benchmark_f1);
    e.set("virr", entry.benchmark_virr);
    e.set("threshold", entry.threshold);
    e.set("stage", stage_name(entry.stage));
    e.set("artifact", entry.artifact);
    entries.push_back(std::move(e));
  }
  Json out = Json::object();
  out.set("next_version", next_version_);
  out.set("models", std::move(entries));
  return out;
}

namespace {

dram::Platform platform_from_name(const std::string& name) {
  if (name == "Intel Purley") return dram::Platform::kIntelPurley;
  if (name == "Intel Whitley") return dram::Platform::kIntelWhitley;
  return dram::Platform::kK920;
}

ModelStage stage_from_name(const std::string& name) {
  if (name == "production") return ModelStage::kProduction;
  if (name == "archived") return ModelStage::kArchived;
  return ModelStage::kStaging;
}

}  // namespace

ModelRegistry ModelRegistry::from_json(const Json& json) {
  ModelRegistry registry;
  registry.next_version_ = json.at("next_version").as_int32();
  for (const Json& e : json.at("models").as_array()) {
    ModelVersion entry;
    entry.version = e.at("version").as_int32();
    entry.platform = platform_from_name(e.at("platform").as_string());
    entry.algorithm = e.at("algorithm").as_string();
    entry.benchmark_f1 = e.at("f1").as_number();
    entry.benchmark_virr = e.at("virr").as_number();
    entry.threshold = e.at("threshold").as_number();
    entry.stage = stage_from_name(e.at("stage").as_string());
    entry.artifact = e.at("artifact");
    registry.versions_[entry.version] = std::move(entry);
  }
  return registry;
}

}  // namespace memfp::mlops
