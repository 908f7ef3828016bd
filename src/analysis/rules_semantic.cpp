// SA + CM families: cross-model semantic checks (DESIGN.md §15).
//
// SA (attack-path) reasons over the reachability dataflow: the zone/
// conduit graph is analyzed as an attacker-movement graph, and a zone's
// EFFECTIVE resistance (weakest entry path, analysis/reachability.h) is
// compared against the targets the TARA's CAL assignments demand. This is
// what the per-zone gap analysis (ZC002) cannot see: a zone can meet its
// own SL-T locally and still be reachable through a softer neighbour.
//
// CM (consistency) ties the TARA to the GSN argument and the zone model:
// a treatment decision is a CLAIM, and claims need a goal in the security
// case (CM001/CM002); retained risks accumulate per zone and must stay
// under an explicit budget (CM003); a treatment that leaves residual risk
// at the high-risk bar is treatment in name only (CM004).
#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/reachability.h"
#include "analysis/rules.h"

namespace agrarsec::analysis {

namespace {

/// SA001/SA003: lowest CAL whose assets get reachability/SL-floor
/// scrutiny (CAL3 per the certification argument: CAL3/CAL4 assets
/// carry the safety case).
constexpr risk::Cal kReachabilityMinCal = risk::Cal::kCal3;

/// FR that guards a security property (IEC 62443-3-3 FR <- 21434 asset
/// property): losing confidentiality is an FR-DC failure, integrity
/// FR-SI, availability FR-RA, authenticity FR-IAC.
risk::Fr fr_for_property(risk::SecurityProperty property) {
  switch (property) {
    case risk::SecurityProperty::kConfidentiality:
      return risk::Fr::kDc;
    case risk::SecurityProperty::kIntegrity:
      return risk::Fr::kSi;
    case risk::SecurityProperty::kAvailability:
      return risk::Fr::kRa;
    case risk::SecurityProperty::kAuthenticity:
      return risk::Fr::kIac;
  }
  return risk::Fr::kSi;
}

/// Highest CAL assessed against each asset (no threats => absent).
std::unordered_map<std::uint64_t, risk::Cal> asset_cal_map(const risk::Tara& tara) {
  std::unordered_map<std::uint64_t, risk::Cal> cal;
  for (const risk::AssessedThreat& result : tara.results()) {
    const std::uint64_t key = result.scenario.asset.value();
    const auto it = cal.find(key);
    if (it == cal.end() || result.cal > it->second) cal[key] = result.cal;
  }
  return cal;
}

/// "CAL3" etc. demands SL-T at least cal+1 on the FRs guarding the
/// asset's properties: CAL1->1 ... CAL4->4 (the 62443 SL ladder the
/// certification argument rides on).
int required_sl(risk::Cal cal) { return static_cast<int>(cal) + 1; }

void run_attack_path_rules(const Model& model, std::vector<Diagnostic>& out) {
  if (model.zones == nullptr || model.countermeasures == nullptr) return;
  const risk::ZoneModel& zones = *model.zones;
  const std::vector<ZoneReachability> reach =
      compute_reachability(zones, *model.countermeasures);

  std::unordered_map<std::uint64_t, risk::Cal> cal;
  if (model.tara != nullptr) cal = asset_cal_map(*model.tara);
  const risk::ItemDefinition* item =
      model.tara != nullptr ? &model.tara->item() : model.item;

  for (std::size_t i = 0; i < zones.zones().size(); ++i) {
    const risk::Zone& zone = zones.zones()[i];
    const ZoneReachability& r = reach[i];

    // High-CAL assets in this zone, in declaration order.
    std::vector<const risk::Asset*> critical;
    if (item != nullptr) {
      for (const AssetId asset_id : zone.assets) {
        const risk::Asset* asset = item->find(asset_id);
        if (asset == nullptr) continue;
        const auto it = cal.find(asset_id.value());
        if (it == cal.end() || it->second < kReachabilityMinCal) continue;
        critical.push_back(asset);
      }
    }

    for (std::size_t fr = 0; fr < risk::kFrCount; ++fr) {
      const auto fr_label =
          std::string(risk::fr_name(static_cast<risk::Fr>(fr)));

      // SA001: effective resistance under SL-T with high-CAL assets
      // exposed — the architecture admits an attacker it claims to
      // exclude, and the assets that carry the safety case are in reach.
      if (!critical.empty() &&
          r.effective[fr] < zone.target[fr]) {
        std::string assets;
        for (const risk::Asset* asset : critical) {
          if (!assets.empty()) assets += ", ";
          assets += asset->name;
        }
        Diagnostic d;
        d.rule = "SA001";
        d.severity = Severity::kError;
        d.entities = {"zone:" + zone.name, "fr:" + fr_label};
        d.message = "zone '" + zone.name + "' holds high-CAL assets (" + assets +
                    ") but its effective " + fr_label + " resistance " +
                    std::to_string(r.effective[fr]) + " is below SL-T " +
                    std::to_string(zone.target[fr]);
        d.hint = r.witness[fr].empty()
                     ? "harden the zone's own countermeasures to close the gap"
                     : "harden the entry path: " + witness_to_string(r.witness[fr]);
        out.push_back(std::move(d));
      }

      // SA002: a conduit path strictly undercuts the zone's own
      // defences — local hardening is being bypassed, not defeated.
      if (r.effective[fr] < r.local[fr]) {
        Diagnostic d;
        d.rule = "SA002";
        d.severity = Severity::kWarning;
        d.entities = {"zone:" + zone.name, "fr:" + fr_label};
        d.message = "entry path '" + witness_to_string(r.witness[fr]) +
                    "' reaches zone '" + zone.name + "' at " + fr_label +
                    " resistance " + std::to_string(r.effective[fr]) +
                    ", under its local " + std::to_string(r.local[fr]);
        d.hint = "raise the weakest barrier on the path or cut the conduit";
        out.push_back(std::move(d));
      }
    }

    // SA003: SL-T itself below the floor the assets' CAL demands on the
    // FRs guarding their declared properties — the target was set before
    // the TARA said how attractive the asset is.
    if (item != nullptr) {
      for (const AssetId asset_id : zone.assets) {
        const risk::Asset* asset = item->find(asset_id);
        if (asset == nullptr) continue;
        const auto it = cal.find(asset_id.value());
        if (it == cal.end() || it->second < kReachabilityMinCal) continue;
        const int floor = required_sl(it->second);
        for (const risk::SecurityProperty property : asset->properties) {
          const risk::Fr fr = fr_for_property(property);
          const auto idx = static_cast<std::size_t>(fr);
          if (zone.target[idx] >= floor) continue;
          Diagnostic d;
          d.rule = "SA003";
          d.severity = Severity::kWarning;
          d.entities = {"zone:" + zone.name, "asset:" + asset->name,
                        "fr:" + std::string(risk::fr_name(fr))};
          d.message = "zone '" + zone.name + "' targets " +
                      std::string(risk::fr_name(fr)) + " SL-T " +
                      std::to_string(zone.target[idx]) + " but asset '" +
                      asset->name + "' at " +
                      std::string(risk::cal_name(it->second)) +
                      " demands at least " + std::to_string(floor) + " for its " +
                      std::string(risk::security_property_name(property)) +
                      " property";
          d.hint = "raise the zone SL-T or move the asset to a harder zone";
          out.push_back(std::move(d));
        }
      }
    }
  }

  // SA004: conduit hardened beyond both endpoint targets — spend that
  // buys no assurance (the endpoints gate first) and usually marks a
  // countermeasure attached to the wrong element.
  auto zone_by_id = [&](ZoneId id) -> const risk::Zone* {
    for (const risk::Zone& zone : zones.zones()) {
      if (zone.id == id) return &zone;
    }
    return nullptr;
  };
  for (const risk::Conduit& conduit : zones.conduits()) {
    const risk::Zone* from = zone_by_id(conduit.from);
    const risk::Zone* to = zone_by_id(conduit.to);
    if (from == nullptr || to == nullptr) continue;  // ZC001 reports it
    const risk::SlVector achieved = zones.achieved(conduit, *model.countermeasures);
    for (std::size_t fr = 0; fr < risk::kFrCount; ++fr) {
      if (achieved[fr] <= from->target[fr] || achieved[fr] <= to->target[fr]) {
        continue;
      }
      Diagnostic d;
      d.rule = "SA004";
      d.severity = Severity::kInfo;
      d.entities = {"conduit:" + conduit.name,
                    "fr:" + std::string(risk::fr_name(static_cast<risk::Fr>(fr)))};
      d.message = "conduit '" + conduit.name + "' achieves " +
                  std::string(risk::fr_name(static_cast<risk::Fr>(fr))) + " " +
                  std::to_string(achieved[fr]) +
                  ", above both endpoint zone targets (" +
                  std::to_string(from->target[fr]) + ", " +
                  std::to_string(to->target[fr]) + ")";
      d.hint = "re-balance: the endpoint zones gate before the conduit does";
      out.push_back(std::move(d));
    }
  }
}

/// True if the goal's argument neighbourhood mentions `asset_name`: the
/// goal itself, any attached context, or any ancestor reached walking
/// supported_by edges upward (with their contexts). Mirrors how
/// build_security_case() nests "G-threat-*" under "G-asset-*".
bool argument_names_asset(const assurance::ArgumentModel& argument,
                          const assurance::GsnNode& goal,
                          const std::string& asset_name) {
  // Reverse supported_by adjacency: child id -> parents.
  std::unordered_map<std::uint64_t, std::vector<const assurance::GsnNode*>> parents;
  for (const assurance::GsnNode& node : argument.nodes()) {
    for (const GsnId child : node.supported_by) {
      parents[child.value()].push_back(&node);
    }
  }

  auto mentions = [&](const assurance::GsnNode& node) {
    if (node.label.find(asset_name) != std::string::npos) return true;
    if (node.statement.find(asset_name) != std::string::npos) return true;
    for (const GsnId ctx : node.in_context_of) {
      const assurance::GsnNode* context = argument.node(ctx);
      if (context == nullptr) continue;
      if (context->label.find(asset_name) != std::string::npos) return true;
      if (context->statement.find(asset_name) != std::string::npos) return true;
    }
    return false;
  };

  std::unordered_set<std::uint64_t> seen;
  std::vector<const assurance::GsnNode*> stack = {&goal};
  while (!stack.empty()) {
    const assurance::GsnNode* at = stack.back();
    stack.pop_back();
    if (!seen.insert(at->id.value()).second) continue;
    if (mentions(*at)) return true;
    const auto it = parents.find(at->id.value());
    if (it == parents.end()) continue;
    for (const assurance::GsnNode* parent : it->second) stack.push_back(parent);
  }
  return false;
}

void run_consistency_rules(const Model& model, const AnalyzerConfig& config,
                           std::vector<Diagnostic>& out) {
  if (model.tara == nullptr) return;
  const risk::Tara& tara = *model.tara;

  for (const risk::AssessedThreat& result : tara.results()) {
    const bool claimed = result.treatment == risk::Treatment::kAvoid ||
                         result.treatment == risk::Treatment::kReduce;
    const std::string goal_label = "G-threat-" + result.scenario.name;

    if (claimed && model.argument != nullptr) {
      const assurance::GsnNode* goal = model.argument->by_label(goal_label);
      if (goal == nullptr) {
        // CM001: the TARA says the risk is treated; the security case
        // never argues it. An assessor reads that as an unsupported claim.
        Diagnostic d;
        d.rule = "CM001";
        d.severity = Severity::kError;
        d.entities = {"threat:" + result.scenario.name, "goal:" + goal_label};
        d.message = "threat '" + result.scenario.name + "' is treated (" +
                    std::string(risk::treatment_name(result.treatment)) +
                    ") but the argument has no goal '" + goal_label + "'";
        d.hint = "add the mitigation goal to the security case";
        out.push_back(std::move(d));
      } else {
        // CM002: the goal exists but its argument neighbourhood never
        // names the treated asset — the claim is not anchored to what it
        // protects.
        const risk::Asset* asset = tara.item().find(result.scenario.asset);
        if (asset != nullptr &&
            !argument_names_asset(*model.argument, *goal, asset->name)) {
          Diagnostic d;
          d.rule = "CM002";
          d.severity = Severity::kWarning;
          d.entities = {"threat:" + result.scenario.name, "goal:" + goal_label,
                        "asset:" + asset->name};
          d.message = "goal '" + goal_label +
                      "' claims treatment of a threat against '" + asset->name +
                      "' but neither the goal, its contexts nor its ancestors "
                      "name that asset";
          d.hint = "attach a context naming the asset or re-parent the goal";
          out.push_back(std::move(d));
        }
      }
    }

    // CM004: treatment applied, residual risk still at the high-risk
    // bar — controls were selected but did not move the needle.
    if (claimed && result.residual_risk >= kHighRisk) {
      Diagnostic d;
      d.rule = "CM004";
      d.severity = Severity::kWarning;
      d.entities = {"threat:" + result.scenario.name};
      d.message = "threat '" + result.scenario.name + "' is treated (" +
                  std::string(risk::treatment_name(result.treatment)) +
                  ") but residual risk " + std::to_string(result.residual_risk) +
                  " still meets the high-risk bar " +
                  std::to_string(kHighRisk);
      d.hint = "add controls, redesign, or escalate to an avoid decision";
      out.push_back(std::move(d));
    }
  }

  // CM003: retained residual risk summed per zone against the budget.
  // Retention is a legitimate decision per threat; a zone quietly
  // accumulating many of them is a decision nobody made.
  if (model.zones != nullptr) {
    for (const risk::Zone& zone : model.zones->zones()) {
      std::unordered_set<std::uint64_t> zone_assets;
      for (const AssetId asset : zone.assets) zone_assets.insert(asset.value());

      risk::RiskValue retained = 0;
      std::vector<std::string> contributors;
      for (const risk::AssessedThreat& result : tara.results()) {
        if (result.treatment != risk::Treatment::kRetain) continue;
        if (!zone_assets.contains(result.scenario.asset.value())) continue;
        retained += result.residual_risk;
        contributors.push_back(result.scenario.name);
      }
      if (retained <= config.zone_residual_budget) continue;

      std::string list;
      for (const std::string& name : contributors) {
        if (!list.empty()) list += ", ";
        list += name;
      }
      Diagnostic d;
      d.rule = "CM003";
      d.severity = Severity::kError;
      d.entities = {"zone:" + zone.name};
      d.message = "zone '" + zone.name + "' retains residual risk " +
                  std::to_string(retained) + " (budget " +
                  std::to_string(config.zone_residual_budget) + ") from: " + list;
      d.hint = "treat some retained threats or raise the documented budget";
      out.push_back(std::move(d));
    }
  }
}

}  // namespace

void run_semantic_rules(const Model& model, const AnalyzerConfig& config,
                        std::vector<Diagnostic>& out) {
  run_attack_path_rules(model, out);
  run_consistency_rules(model, config, out);
}

}  // namespace agrarsec::analysis
