#include "analysis/baseline.h"

#include <algorithm>

#include "core/json.h"

namespace agrarsec::analysis {

using core::Json;

Baseline Baseline::from(const std::vector<Diagnostic>& diagnostics) {
  Baseline baseline;
  for (const Diagnostic& d : diagnostics) baseline.keys_.insert(d.key());
  return baseline;
}

std::optional<Baseline> Baseline::parse(std::string_view json, std::string* error) {
  const auto parsed = Json::parse(json, error);
  if (!parsed) return std::nullopt;
  if (!parsed->is(Json::Kind::kObject)) {
    if (error != nullptr) *error = "baseline root must be an object";
    return std::nullopt;
  }
  const Json* version = parsed->find("version");
  if (version == nullptr || !version->is(Json::Kind::kNumber) ||
      version->as_number() != 1.0) {
    if (error != nullptr) *error = "unsupported baseline version";
    return std::nullopt;
  }
  const Json* findings = parsed->find("findings");
  if (findings == nullptr || !findings->is(Json::Kind::kArray)) {
    if (error != nullptr) *error = "baseline requires a 'findings' array";
    return std::nullopt;
  }

  Baseline baseline;
  for (const Json& entry : findings->items()) {
    if (!entry.is(Json::Kind::kObject)) {
      if (error != nullptr) *error = "baseline finding must be an object";
      return std::nullopt;
    }
    const Json* rule = entry.find("rule");
    if (rule == nullptr || !rule->is(Json::Kind::kString)) {
      if (error != nullptr) *error = "baseline finding requires a 'rule' string";
      return std::nullopt;
    }
    Diagnostic key_source;
    key_source.rule = rule->as_string();
    if (const Json* entities = entry.find("entities"); entities != nullptr) {
      if (!entities->is(Json::Kind::kArray)) {
        if (error != nullptr) *error = "'entities' must be an array of strings";
        return std::nullopt;
      }
      for (const Json& entity : entities->items()) {
        if (!entity.is(Json::Kind::kString)) {
          if (error != nullptr) *error = "'entities' must be an array of strings";
          return std::nullopt;
        }
        key_source.entities.push_back(entity.as_string());
      }
    }
    baseline.keys_.insert(key_source.key());
  }
  return baseline;
}

std::vector<Diagnostic> Baseline::filter(std::vector<Diagnostic> diagnostics) const {
  diagnostics.erase(
      std::remove_if(diagnostics.begin(), diagnostics.end(),
                     [this](const Diagnostic& d) { return covers(d); }),
      diagnostics.end());
  return diagnostics;
}

std::vector<std::string> Baseline::stale_keys(
    const std::vector<Diagnostic>& diagnostics) const {
  std::set<std::string> live;
  for (const Diagnostic& d : diagnostics) live.insert(d.key());
  std::vector<std::string> stale;
  for (const std::string& key : keys_) {  // std::set: sorted, deterministic
    if (live.contains(key)) continue;
    // key = rule '\x1f' entity '\x1f' entity... -> "rule entity, entity".
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
      const std::size_t separator = key.find('\x1f', start);
      parts.push_back(key.substr(
          start, separator == std::string::npos ? std::string::npos
                                                : separator - start));
      if (separator == std::string::npos) break;
      start = separator + 1;
    }
    std::string rendered = parts[0];
    for (std::size_t i = 1; i < parts.size(); ++i) {
      rendered += (i == 1 ? " " : ", ") + parts[i];
    }
    stale.push_back(std::move(rendered));
  }
  return stale;
}

std::string Baseline::to_json() const {
  Json findings = Json::array();
  for (const std::string& key : keys_) {  // std::set: sorted, deterministic
    Json finding = Json::object();
    Json entities = Json::array();
    std::size_t start = 0;
    std::size_t separator = key.find('\x1f');
    const std::string rule = key.substr(0, separator);
    while (separator != std::string::npos) {
      start = separator + 1;
      separator = key.find('\x1f', start);
      entities.push(Json::string(key.substr(start, separator == std::string::npos
                                                       ? std::string::npos
                                                       : separator - start)));
    }
    finding.set("rule", Json::string(rule));
    finding.set("entities", std::move(entities));
    findings.push(std::move(finding));
  }
  Json out = Json::object();
  out.set("version", Json::number(1));
  out.set("findings", std::move(findings));
  return out.serialize(2) + "\n";
}

}  // namespace agrarsec::analysis
