// TA family: TARA reference integrity and treatment discipline (ISO/SAE
// 21434 clause 15). A risk assessment an assessor accepts has every high
// risk explicitly treated, every threat anchored to a declared asset,
// every applied control resolvable in the control catalogue, and no dead
// catalogue entries that were never instantiated against the item.
#include <string>
#include <unordered_set>

#include "analysis/rules.h"

namespace agrarsec::analysis {

void run_tara_rules(const Model& model, const AnalyzerConfig& config,
                    std::vector<Diagnostic>& out) {
  (void)config;
  if (model.tara == nullptr) return;
  const risk::Tara& tara = *model.tara;

  std::unordered_set<std::string> known_controls;
  if (model.controls != nullptr) {
    for (const risk::Control& control : *model.controls) {
      known_controls.insert(control.id);
    }
  }

  for (const risk::AssessedThreat& result : tara.results()) {
    const std::string threat_entity = "threat:" + result.scenario.name;

    // TA001: a high initial risk left at "retain" is a missing treatment
    // decision — 21434 demands reduce/avoid/share (or a documented
    // acceptance, which this model expresses as a lower risk value).
    if (result.treatment == risk::Treatment::kRetain &&
        result.initial_risk >= kHighRisk) {
      Diagnostic d;
      d.rule = "TA001";
      d.severity = Severity::kError;
      d.entities = {threat_entity};
      d.message = "high-risk threat '" + result.scenario.name + "' (risk " +
                  std::to_string(result.initial_risk) +
                  ") has no treatment decision (retained untreated)";
      d.hint = "treat the risk (reduce/avoid/share) or justify acceptance";
      out.push_back(std::move(d));
    }

    // TA002: reference integrity — the scenario's asset must exist in the
    // item, and every applied control must resolve in the catalogue.
    if (tara.item().find(result.scenario.asset) == nullptr) {
      Diagnostic d;
      d.rule = "TA002";
      d.severity = Severity::kError;
      d.entities = {threat_entity,
                    "asset-id:" + std::to_string(result.scenario.asset.value())};
      d.message = "threat '" + result.scenario.name +
                  "' references unknown asset id " +
                  std::to_string(result.scenario.asset.value());
      d.hint = "declare the asset in the item definition or retarget the threat";
      out.push_back(std::move(d));
    }
    if (model.controls != nullptr) {
      for (const std::string& control : result.applied_controls) {
        if (known_controls.contains(control)) continue;
        Diagnostic d;
        d.rule = "TA002";
        d.severity = Severity::kError;
        d.entities = {threat_entity, "control:" + control};
        d.message = "threat '" + result.scenario.name +
                    "' applies control '" + control +
                    "' that is not in the control catalogue";
        d.hint = "add the control to the catalogue or re-assess against it";
        out.push_back(std::move(d));
      }
    }
  }

  // TA003: a threat-catalogue characteristic never instantiated against
  // any asset means a whole attack surface was skipped during analysis.
  if (model.characteristics != nullptr) {
    std::unordered_set<std::string> instantiated;
    for (const risk::AssessedThreat& result : tara.results()) {
      instantiated.insert(result.scenario.characteristic);
    }
    for (const risk::ForestryCharacteristic& characteristic :
         *model.characteristics) {
      if (instantiated.contains(characteristic.name)) continue;
      Diagnostic d;
      d.rule = "TA003";
      d.severity = Severity::kInfo;
      d.entities = {"characteristic:" + characteristic.name};
      d.message = "threat catalogue characteristic '" + characteristic.name +
                  "' is never instantiated against any asset";
      d.hint = "derive at least one threat scenario from it or record why not";
      out.push_back(std::move(d));
    }
  }
}

}  // namespace agrarsec::analysis
