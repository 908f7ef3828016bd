// ZC family: IEC 62443 zone/conduit structure. What an assessor checks
// first on a zone model: conduits must connect declared zones, achieved
// security levels must meet targets, a conduit bridging a trust gradient
// needs its own compensating countermeasures, and every asset in the item
// must live in exactly one trust domain.
#include <string>
#include <unordered_set>

#include "analysis/rules.h"

namespace agrarsec::analysis {

namespace {

/// ZC003: SL-T gap between bridged zones that demands a compensating
/// conduit countermeasure.
constexpr int kConduitGap = 2;

const risk::Zone* zone_by_id(const risk::ZoneModel& zones, ZoneId id) {
  for (const risk::Zone& z : zones.zones()) {
    if (z.id == id) return &z;
  }
  return nullptr;
}

void check_sl_gaps(const std::string& subject_entity, const risk::SlVector& target,
                   const risk::SlVector& achieved, std::vector<Diagnostic>& out) {
  for (std::size_t fr = 0; fr < risk::kFrCount; ++fr) {
    if (achieved[fr] >= target[fr]) continue;
    Diagnostic d;
    d.rule = "ZC002";
    d.severity = Severity::kWarning;
    d.entities = {subject_entity,
                  "fr:" + std::string(risk::fr_name(static_cast<risk::Fr>(fr)))};
    d.message = "achieved SL-A " + std::to_string(achieved[fr]) +
                " below target SL-T " + std::to_string(target[fr]) + " for " +
                std::string(risk::fr_name(static_cast<risk::Fr>(fr)));
    d.hint = "install a countermeasure providing this FR or justify a lower SL-T";
    out.push_back(std::move(d));
  }
}

}  // namespace

void run_zone_rules(const Model& model, const AnalyzerConfig& config,
                    std::vector<Diagnostic>& out) {
  (void)config;
  if (model.zones == nullptr || model.countermeasures == nullptr) return;
  const risk::ZoneModel& zones = *model.zones;
  const auto& catalogue = *model.countermeasures;

  // ZC001: conduit endpoints must be declared zones.
  for (const risk::Conduit& conduit : zones.conduits()) {
    for (const ZoneId endpoint : {conduit.from, conduit.to}) {
      if (zone_by_id(zones, endpoint) != nullptr) continue;
      Diagnostic d;
      d.rule = "ZC001";
      d.severity = Severity::kError;
      d.entities = {"conduit:" + conduit.name,
                    "zone-id:" + std::to_string(endpoint.value())};
      d.message = "conduit '" + conduit.name +
                  "' endpoint references undeclared zone id " +
                  std::to_string(endpoint.value());
      d.hint = "declare the zone in the model or retarget the conduit";
      out.push_back(std::move(d));
    }
  }

  // ZC002: achieved SL-A below target SL-T, per FR, zones and conduits.
  for (const risk::Zone& zone : zones.zones()) {
    check_sl_gaps("zone:" + zone.name, zone.target, zones.achieved(zone, catalogue),
                  out);
  }
  for (const risk::Conduit& conduit : zones.conduits()) {
    check_sl_gaps("conduit:" + conduit.name, conduit.target,
                  zones.achieved(conduit, catalogue), out);
  }

  // ZC003: a conduit bridging zones whose SL-T differ by >= kConduitGap in
  // some FR is a trust-gradient crossing; it needs a conduit-level
  // countermeasure contributing to that FR (the compensating control an
  // assessor looks for at every gradient crossing).
  for (const risk::Conduit& conduit : zones.conduits()) {
    const risk::Zone* from = zone_by_id(zones, conduit.from);
    const risk::Zone* to = zone_by_id(zones, conduit.to);
    if (from == nullptr || to == nullptr) continue;  // ZC001 already fired
    const risk::SlVector achieved = zones.achieved(conduit, catalogue);
    for (std::size_t fr = 0; fr < risk::kFrCount; ++fr) {
      const int gap = from->target[fr] > to->target[fr]
                          ? from->target[fr] - to->target[fr]
                          : to->target[fr] - from->target[fr];
      if (gap < kConduitGap || achieved[fr] > 0) continue;
      Diagnostic d;
      d.rule = "ZC003";
      d.severity = Severity::kWarning;
      d.entities = {"conduit:" + conduit.name,
                    "fr:" + std::string(risk::fr_name(static_cast<risk::Fr>(fr)))};
      d.message = "conduit '" + conduit.name + "' bridges zones '" + from->name +
                  "' and '" + to->name + "' with SL-T gap " + std::to_string(gap) +
                  " in " + std::string(risk::fr_name(static_cast<risk::Fr>(fr))) +
                  " but carries no compensating countermeasure";
      d.hint = "install a conduit countermeasure providing this FR";
      out.push_back(std::move(d));
    }
  }

  // ZC004: every item asset must be assigned to a zone.
  if (model.item != nullptr) {
    std::unordered_set<std::uint64_t> zoned;
    for (const risk::Zone& zone : zones.zones()) {
      for (const AssetId asset : zone.assets) zoned.insert(asset.value());
    }
    for (const risk::Asset& asset : model.item->assets) {
      if (zoned.contains(asset.id.value())) continue;
      Diagnostic d;
      d.rule = "ZC004";
      d.severity = Severity::kWarning;
      d.entities = {"asset:" + asset.name};
      d.message = "asset '" + asset.name + "' is assigned to no zone";
      d.hint = "add the asset to the zone matching its criticality";
      out.push_back(std::move(d));
    }
  }
}

}  // namespace agrarsec::analysis
