#include "assurance/cascade.h"

#include <algorithm>

namespace agrarsec::assurance {

namespace {
/// Evidence confidence assigned to verified controls (tests green).
constexpr double kControlConfidence = 0.9;
/// Residual risk at or below this is argued acceptable without
/// additional justification.
constexpr risk::RiskValue kAcceptableRisk = 2;
}  // namespace

CascadeResult build_security_case(const risk::Tara& tara, EvidenceRegistry& registry) {
  CascadeResult out;
  ArgumentModel& arg = out.argument;

  out.top_goal = arg.add(GsnType::kGoal, "G-top",
                         "The item '" + tara.item().name +
                             "' is acceptably secure against the assessed "
                             "threat scenarios");
  const GsnId ctx_item =
      arg.add(GsnType::kContext, "C-item", "Item definition: " + tara.item().mission);
  arg.in_context(out.top_goal, ctx_item);
  const GsnId ctx_tara = arg.add(
      GsnType::kContext, "C-tara",
      "TARA per ISO/SAE 21434 over " + std::to_string(tara.results().size()) +
          " threat scenarios");
  arg.in_context(out.top_goal, ctx_tara);

  const GsnId strategy_assets =
      arg.add(GsnType::kStrategy, "S-assets",
              "Argue security asset by asset over the item definition");
  arg.support(out.top_goal, strategy_assets);

  // One sub-goal per asset that actually has threats.
  std::unordered_map<std::uint64_t, GsnId> asset_goals;
  for (const risk::Asset& asset : tara.item().assets) {
    const bool has_threats =
        std::any_of(tara.results().begin(), tara.results().end(),
                    [&](const risk::AssessedThreat& t) {
                      return t.scenario.asset == asset.id;
                    });
    if (!has_threats) continue;
    const GsnId g = arg.add(GsnType::kGoal, "G-asset-" + asset.name,
                            "Asset '" + asset.name + "' is adequately protected");
    arg.support(strategy_assets, g);
    asset_goals[asset.id.value()] = g;
  }

  // Per threat: claim + strategy-over-controls + solutions.
  for (const risk::AssessedThreat& t : tara.results()) {
    const auto asset_goal = asset_goals.find(t.scenario.asset.value());
    if (asset_goal == asset_goals.end()) continue;

    const std::string label = "G-threat-" + t.scenario.name;
    const GsnId goal = arg.add(
        GsnType::kGoal, label,
        "Residual risk of '" + t.scenario.name + "' is acceptable (risk " +
            std::to_string(t.residual_risk) + " <= " +
            std::to_string(kAcceptableRisk) + ", " +
            std::string(risk::cal_name(t.cal)) + ")");
    arg.support(asset_goal->second, goal);
    out.threat_goals[t.scenario.id.value()] = goal;

    if (t.applied_controls.empty()) {
      if (t.residual_risk <= kAcceptableRisk) {
        // Retained low risk: justified acceptance, evidenced by the
        // assessment record itself.
        const GsnId sol =
            arg.add(GsnType::kSolution, "Sn-retain-" + t.scenario.name,
                    "TARA record: risk retained at value " +
                        std::to_string(t.residual_risk));
        const EvidenceId ev = registry.add(
            EvidenceKind::kAnalysis, "tara-" + t.scenario.name,
            "assessment record for retained risk", 0.95);
        arg.bind_evidence(sol, ev);
        arg.support(goal, sol);
      } else {
        arg.mark_undeveloped(goal);  // open point: needs treatment
      }
      continue;
    }

    const GsnId strategy =
        arg.add(GsnType::kStrategy, "S-controls-" + t.scenario.name,
                "Argue over the implemented controls reducing feasibility from " +
                    std::string(risk::feasibility_name(t.initial_feasibility)) +
                    " to " +
                    std::string(risk::feasibility_name(t.residual_feasibility)));
    arg.support(goal, strategy);

    for (const std::string& control : t.applied_controls) {
      EvidenceId ev;
      if (const auto it = out.control_evidence.find(control);
          it != out.control_evidence.end()) {
        ev = it->second;
      } else {
        ev = registry.add(EvidenceKind::kTestResult, "verify-" + control,
                          "verification results for control '" + control + "'",
                          kControlConfidence);
        out.control_evidence[control] = ev;
      }
      const std::string sol_label = "Sn-" + control + "-" + t.scenario.name;
      const GsnId sol = arg.add(GsnType::kSolution, sol_label,
                                "Control '" + control + "' implemented and verified");
      arg.bind_evidence(sol, ev);
      arg.support(strategy, sol);
    }
  }
  return out;
}

void extend_with_coanalysis(CascadeResult& result,
                            const std::vector<risk::HazardVerdict>& verdicts,
                            EvidenceRegistry& registry) {
  ArgumentModel& arg = result.argument;
  const GsnId interplay_goal = arg.add(
      GsnType::kGoal, "G-interplay",
      "Safety functions remain effective under the assessed cyber attacks");
  arg.support(result.top_goal, interplay_goal);
  const GsnId strategy = arg.add(GsnType::kStrategy, "S-hazards",
                                 "Argue hazard by hazard over the co-analysis");
  arg.support(interplay_goal, strategy);

  for (const risk::HazardVerdict& v : verdicts) {
    const GsnId g = arg.add(
        GsnType::kGoal, "G-hazard-" + v.hazard.name,
        "Hazard '" + v.hazard.name + "' controlled: requires " +
            std::string(safety::performance_level_name(v.required)) +
            (v.combined_ok ? " — combined verdict OK" : " — OPEN"));
    arg.support(strategy, g);

    if (v.combined_ok) {
      const GsnId sol = arg.add(GsnType::kSolution, "Sn-coanalysis-" + v.hazard.name,
                                "Co-analysis verdict with PL and residual-risk checks");
      const EvidenceId ev =
          registry.add(EvidenceKind::kAnalysis, "coanalysis-" + v.hazard.name,
                       "combined safety-security analysis record", 0.9);
      arg.bind_evidence(sol, ev);
      arg.support(g, sol);
    } else {
      arg.mark_undeveloped(g);
    }
  }
}

}  // namespace agrarsec::assurance
