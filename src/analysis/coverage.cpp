#include "analysis/coverage.h"

#include <algorithm>
#include <unordered_set>

#include "analysis/rules.h"
#include "core/json.h"

namespace agrarsec::analysis {

using core::Json;

const std::vector<ExecutableScenario>& scenario_registry() {
  static const std::vector<ExecutableScenario> kScenarios = {
      {"attack-to-hazard-cover-forgery", "bench/bench_attack_to_hazard.cpp",
       {"detection-suppression", "disaster-window-attack"}},
      {"attack-to-hazard-stale-replay", "bench/bench_attack_to_hazard.cpp",
       {"detection-suppression", "estop-replay"}},
      {"channel-flood-vs-ids", "examples/attack_scenarios.cpp",
       {"detection-suppression"}},
      {"console-control-plane-attack", "examples/fleet_console.cpp",
       {"console-command-flood", "console-handshake-bruteforce",
        "console-replay-burst"}},
      {"ghost-lidar", "examples/attack_scenarios.cpp", {"lidar-ghosting"}},
      {"gnss-corridor-walkoff", "bench/bench_gnss_corridor.cpp",
       {"gnss-spoof-walkoff"}},
      {"ids-roc-telemetry-spoof", "bench/bench_ids_roc.cpp",
       {"telemetry-spoof"}},
      {"jam-safety-link", "examples/attack_scenarios.cpp",
       {"estop-suppression"}},
      {"replayed-detections", "examples/attack_scenarios.cpp",
       {"detection-suppression", "estop-replay"}},
      {"session-export-attack-variant", "tools/session_export.cpp",
       {"estop-replay", "rogue-node-join"}},
      {"spoofed-estop", "examples/attack_scenarios.cpp",
       {"forged-mission", "rogue-node-join"}},
  };
  return kScenarios;
}

CoverageMatrix build_coverage(const Model& model) {
  CoverageMatrix matrix;
  if (model.tara == nullptr) return matrix;

  std::unordered_set<std::string> catalogued;
  for (const risk::AssessedThreat& result : model.tara->results()) {
    catalogued.insert(result.scenario.name);
    ThreatCoverage row;
    row.threat = result.scenario.name;
    row.treatment = std::string(risk::treatment_name(result.treatment));
    row.cal = std::string(risk::cal_name(result.cal));
    if (model.ids_rules != nullptr) {
      for (const ids::DetectionRuleInfo& rule : *model.ids_rules) {
        if (std::find(rule.threats.begin(), rule.threats.end(),
                      result.scenario.name) != rule.threats.end()) {
          row.detections.push_back(rule.id);
        }
      }
    }
    if (model.scenarios != nullptr) {
      for (const ExecutableScenario& scenario : *model.scenarios) {
        if (std::find(scenario.threats.begin(), scenario.threats.end(),
                      result.scenario.name) != scenario.threats.end()) {
          row.scenarios.push_back(scenario.name);
        }
      }
    }
    matrix.threats.push_back(std::move(row));
  }
  std::sort(matrix.threats.begin(), matrix.threats.end(),
            [](const ThreatCoverage& a, const ThreatCoverage& b) {
              return a.threat < b.threat;
            });

  if (model.ids_rules != nullptr) {
    for (const ids::DetectionRuleInfo& rule : *model.ids_rules) {
      const bool live = std::any_of(
          rule.threats.begin(), rule.threats.end(),
          [&](const std::string& threat) { return catalogued.contains(threat); });
      if (!live) matrix.dead_rules.push_back(rule.id);
    }
  }
  if (model.scenarios != nullptr) {
    for (const ExecutableScenario& scenario : *model.scenarios) {
      const bool live = std::any_of(
          scenario.threats.begin(), scenario.threats.end(),
          [&](const std::string& threat) { return catalogued.contains(threat); });
      if (!live) matrix.orphan_scenarios.push_back(scenario.name);
    }
  }
  return matrix;
}

std::string render_coverage_json(const CoverageMatrix& matrix, const Model& model) {
  Json threats = Json::array();
  std::size_t detected = 0;
  std::size_t exercised = 0;
  for (const ThreatCoverage& row : matrix.threats) {
    if (!row.detections.empty()) ++detected;
    if (!row.scenarios.empty()) ++exercised;
    Json entry = Json::object();
    entry.set("name", Json::string(row.threat));
    entry.set("treatment", Json::string(row.treatment));
    entry.set("cal", Json::string(row.cal));
    Json detections = Json::array();
    for (const std::string& id : row.detections) detections.push(Json::string(id));
    entry.set("detections", std::move(detections));
    Json scenarios = Json::array();
    for (const std::string& name : row.scenarios) scenarios.push(Json::string(name));
    entry.set("scenarios", std::move(scenarios));
    threats.push(std::move(entry));
  }

  Json rules = Json::array();
  if (model.ids_rules != nullptr) {
    std::unordered_set<std::string> dead(matrix.dead_rules.begin(),
                                         matrix.dead_rules.end());
    for (const ids::DetectionRuleInfo& rule : *model.ids_rules) {
      Json entry = Json::object();
      entry.set("id", Json::string(rule.id));
      entry.set("kind", Json::string(rule.kind));
      Json mapped = Json::array();
      for (const std::string& threat : rule.threats) mapped.push(Json::string(threat));
      entry.set("threats", std::move(mapped));
      entry.set("live", Json::boolean(!dead.contains(rule.id)));
      rules.push(std::move(entry));
    }
  }

  Json scenarios = Json::array();
  if (model.scenarios != nullptr) {
    for (const ExecutableScenario& scenario : *model.scenarios) {
      Json entry = Json::object();
      entry.set("name", Json::string(scenario.name));
      entry.set("location", Json::string(scenario.location));
      Json mapped = Json::array();
      for (const std::string& threat : scenario.threats) {
        mapped.push(Json::string(threat));
      }
      entry.set("threats", std::move(mapped));
      scenarios.push(std::move(entry));
    }
  }

  Json summary = Json::object();
  summary.set("threats", Json::number(static_cast<double>(matrix.threats.size())));
  summary.set("detected", Json::number(static_cast<double>(detected)));
  summary.set("exercised", Json::number(static_cast<double>(exercised)));
  summary.set("dead_rules",
              Json::number(static_cast<double>(matrix.dead_rules.size())));
  summary.set("orphan_scenarios",
              Json::number(static_cast<double>(matrix.orphan_scenarios.size())));

  Json report = Json::object();
  report.set("version", Json::number(1));
  report.set("threats", std::move(threats));
  report.set("rules", std::move(rules));
  report.set("scenarios", std::move(scenarios));
  report.set("summary", std::move(summary));
  return report.serialize(2) + "\n";
}

void run_coverage_rules(const Model& model, const AnalyzerConfig& config,
                        std::vector<Diagnostic>& out) {
  (void)config;
  if (model.tara == nullptr) return;
  const CoverageMatrix matrix = build_coverage(model);

  std::unordered_set<std::string> treated;
  for (const risk::AssessedThreat& result : model.tara->results()) {
    if (result.treatment == risk::Treatment::kAvoid ||
        result.treatment == risk::Treatment::kReduce) {
      treated.insert(result.scenario.name);
    }
  }

  for (const ThreatCoverage& row : matrix.threats) {
    if (!treated.contains(row.threat)) continue;

    // CV001: the TARA claims the threat is treated; at runtime nothing
    // watches for it. Treatment without detection means a control failure
    // is silent — the residual risk argument has no runtime evidence.
    if (model.ids_rules != nullptr && row.detections.empty()) {
      Diagnostic d;
      d.rule = "CV001";
      d.severity = Severity::kWarning;
      d.entities = {"threat:" + row.threat};
      d.message = "treated threat '" + row.threat +
                  "' has no IDS detection rule mapped to it";
      d.hint = "map an IDS rule in ids/rule_table.cpp or justify blindness";
      out.push_back(std::move(d));
    }

    // CV002: the treatment claim is never demonstrated end to end — no
    // executable scenario drives the attack against the defended stack.
    if (model.scenarios != nullptr && row.scenarios.empty()) {
      Diagnostic d;
      d.rule = "CV002";
      d.severity = Severity::kWarning;
      d.entities = {"threat:" + row.threat};
      d.message = "treated threat '" + row.threat +
                  "' has no executable attack scenario exercising it";
      d.hint = "add a scenario to examples//bench/ and register it";
      out.push_back(std::move(d));
    }
  }

  // CV003: a detection rule whose mapped threats all vanished from the
  // TARA — dead monitoring weight, or a threat catalogue edit that
  // orphaned its runtime counterpart.
  for (const std::string& rule_id : matrix.dead_rules) {
    Diagnostic d;
    d.rule = "CV003";
    d.severity = Severity::kInfo;
    d.entities = {"ids-rule:" + rule_id};
    d.message = "IDS rule '" + rule_id +
                "' maps only to threats absent from the TARA";
    d.hint = "retire the rule or re-map it to catalogued threats";
    out.push_back(std::move(d));
  }

  // CV004: a registered scenario exercising nothing catalogued — the
  // demonstration lost its claim.
  for (const std::string& scenario : matrix.orphan_scenarios) {
    Diagnostic d;
    d.rule = "CV004";
    d.severity = Severity::kInfo;
    d.entities = {"scenario:" + scenario};
    d.message = "scenario '" + scenario +
                "' exercises no threat in the TARA catalogue";
    d.hint = "tag the scenario with catalogue threat names or remove it";
    out.push_back(std::move(d));
  }
}

}  // namespace agrarsec::analysis
