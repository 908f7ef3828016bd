// agrarsec-lint: static security-architecture analyzer CLI.
//
// Lints the assembled zone/TARA/GSN/PKI models of this repository — the
// same models the examples build — and emits compiler-style diagnostics.
// Pure graph reasoning, fully deterministic: two runs over the same model
// produce byte-identical output, so CI can gate on new findings via the
// baseline file.
//
//   agrarsec_lint [--model=risk|assurance|pki|all|defective]
//                 [--format=text|json] [--baseline=FILE]
//                 [--write-baseline=FILE] [--coverage-json[=FILE]]
//                 [--list-rules] [--stats[=FILE]]
//
// --stats emits analyzer self-telemetry (rules run, findings per rule
// family, per-pass wall time) through the repo's obs registry — the same
// machinery the simulation exports — as JSON to FILE, or to stderr so
// --format=json pipelines keep a clean stdout.
//
// --coverage-json writes the TARA->IDS->scenario coverage matrix
// (DESIGN.md §15.3) to FILE, or to stdout when no findings report was
// requested there.
//
// Exit codes: 0 = no error-severity findings beyond the baseline,
//             1 = un-baselined error findings or stale baseline entries,
//             2 = usage/IO error, 3 = model construction failed.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/baseline.h"
#include "analysis/coverage.h"
#include "assurance/cascade.h"
#include "ids/rule_table.h"
#include "assurance/compliance.h"
#include "core/time.h"
#include "crypto/random.h"
#include "obs/telemetry.h"
#include "pki/authority.h"
#include "pki/identity.h"
#include "pki/trust_store.h"
#include "risk/catalog.h"
#include "risk/coanalysis.h"
#include "risk/iec62443.h"

using namespace agrarsec;

namespace {

/// Owning storage behind the const pointers of analysis::Model.
struct ModelBundle {
  std::optional<risk::Tara> tara;
  std::optional<risk::ZoneModel> zones;
  std::vector<risk::Countermeasure> countermeasures;
  std::vector<risk::Control> controls;
  std::vector<risk::ForestryCharacteristic> characteristics;
  std::optional<assurance::CascadeResult> sac;
  std::optional<assurance::ArgumentModel> argument;  ///< used when no sac
  std::optional<assurance::EvidenceRegistry> evidence;
  std::optional<assurance::ComplianceMap> compliance;
  std::optional<pki::TrustStore> trust;
  std::vector<analysis::PkiEndpoint> endpoints;
  std::vector<ids::DetectionRuleInfo> ids_rules;
  std::vector<analysis::ExecutableScenario> scenarios;

  [[nodiscard]] analysis::Model view() const {
    analysis::Model model;
    if (tara) {
      model.tara = &*tara;
      model.item = &tara->item();
    }
    if (zones) {
      model.zones = &*zones;
      model.countermeasures = &countermeasures;
    }
    if (!controls.empty()) model.controls = &controls;
    if (!characteristics.empty()) model.characteristics = &characteristics;
    if (sac) model.argument = &sac->argument;
    if (argument) model.argument = &*argument;
    if (evidence) model.evidence = &*evidence;
    if (compliance) model.compliance = &*compliance;
    if (trust) {
      model.trust = &*trust;
      model.endpoints = &endpoints;
    }
    if (!ids_rules.empty()) model.ids_rules = &ids_rules;
    if (!scenarios.empty()) model.scenarios = &scenarios;
    return model;
  }
};

/// The model examples/risk_assessment.cpp assembles: the forestry TARA,
/// the IEC 62443 zone model over its item, and both catalogues.
void add_risk_model(ModelBundle& bundle) {
  bundle.tara = risk::build_forestry_tara();
  bundle.zones = risk::forestry_zone_model(bundle.tara->item());
  bundle.countermeasures = risk::countermeasure_catalogue();
  bundle.controls = risk::control_catalogue();
  bundle.characteristics = risk::table1_characteristics();
  // Coverage layer: the shipped IDS rule table and scenario registry.
  bundle.ids_rules = ids::detection_rule_table();
  bundle.scenarios = analysis::scenario_registry();
}

/// The model examples/assurance_case.cpp assembles: CASCADE-generated SAC
/// extended with the co-analysis leg, plus the EU 2023/1230 / CRA
/// compliance mapping used there.
void add_assurance_model(ModelBundle& bundle) {
  if (!bundle.tara) bundle.tara = risk::build_forestry_tara();
  bundle.evidence.emplace();
  bundle.sac = assurance::build_security_case(*bundle.tara, *bundle.evidence);
  const auto fca = risk::build_forestry_coanalysis(*bundle.tara);
  assurance::extend_with_coanalysis(*bundle.sac, fca.analysis.analyze(*bundle.tara),
                                    *bundle.evidence);

  bundle.compliance.emplace(assurance::machinery_requirements());
  bundle.compliance->map("MR-1.1.9", "G-top");
  bundle.compliance->map("MR-1.2.1", "G-asset-estop-function");
  bundle.compliance->map("MR-1.2.1", "G-interplay");
  bundle.compliance->map("MR-1.1.6", "G-asset-mission-control");
  bundle.compliance->map("MR-1.2.2", "G-asset-m2m-radio-link");
  bundle.compliance->map("MR-1.3.7", "G-asset-people-detection-chain");
  bundle.compliance->map("CRA-SUR-1", "G-asset-forwarder-firmware");
  bundle.compliance->map("CRA-SUR-2", "G-asset-audit-log");
}

/// The PKI trust relationships of the secured worksite: a site root CA,
/// and the machine/drone/operator endpoints enrolled under it.
void add_pki_model(ModelBundle& bundle) {
  crypto::Drbg drbg(1, "agrarsec-lint");
  auto ca = pki::CertificateAuthority::create_root("site-ca", drbg.generate32(), 0,
                                                   1000 * core::kHour);
  bundle.trust.emplace();
  if (auto status = bundle.trust->add_root(ca.certificate()); !status.ok()) {
    throw std::logic_error("trust store rejected root: " + status.error().to_string());
  }

  const struct {
    const char* subject;
    pki::CertRole role;
  } kEndpoints[] = {
      {"forwarder-01", pki::CertRole::kMachine},
      {"drone-01", pki::CertRole::kDrone},
      {"operator-station", pki::CertRole::kOperatorStation},
  };
  for (const auto& endpoint : kEndpoints) {
    auto identity = pki::enroll(ca, drbg, endpoint.subject, endpoint.role, 0,
                                1000 * core::kHour);
    if (!identity.ok()) throw std::logic_error("enrollment failed");
    bundle.endpoints.push_back({endpoint.subject, identity.value().chain});
  }
}

/// A deliberately broken model: one seeded defect per rule family, used by
/// CI to prove the non-zero exit path and by demos to show the output.
void add_defective_model(ModelBundle& bundle) {
  // ZC001/ZC002/ZC003/ZC004: undeclared conduit endpoint, SL gap, a
  // bridging conduit with no compensating countermeasure, unzoned asset.
  bundle.tara.emplace(risk::forestry_item(), risk::TaraConfig{
                                                 .reduce_threshold = 6,
                                                 .avoid_threshold = 6,
                                             });
  for (risk::ThreatScenario& threat :
       risk::forestry_threats(bundle.tara->item())) {
    bundle.tara->add_threat(std::move(threat));
  }
  // TA002 (unknown asset): a threat against an asset the item never declared.
  risk::ThreatScenario ghost;
  ghost.id = ThreatId{9001};
  ghost.asset = AssetId{9001};
  ghost.name = "ghost-asset-threat";
  ghost.damage.safety = risk::ImpactLevel::kSevere;
  bundle.tara->add_threat(std::move(ghost));
  // TA001: reduce_threshold 6 leaves every high risk kRetain (untreated).
  bundle.tara->assess(risk::control_catalogue());
  bundle.controls = risk::control_catalogue();
  bundle.characteristics = risk::table1_characteristics();
  // TA003: a characteristic nothing instantiates.
  bundle.characteristics.push_back(
      {"orphan-characteristic", "a catalogue row no threat was derived from"});

  bundle.countermeasures = risk::countermeasure_catalogue();
  bundle.zones.emplace();
  risk::Zone safety_zone;
  safety_zone.name = "safety";
  safety_zone.target = {4, 4, 4, 4, 4, 4, 4};  // nothing installed: ZC002
  if (!bundle.tara->item().assets.empty()) {
    safety_zone.assets.push_back(bundle.tara->item().assets.front().id);
  }
  risk::Zone data_zone;
  data_zone.name = "data";
  data_zone.target = {1, 1, 1, 1, 1, 1, 1};
  const ZoneId safety_id = bundle.zones->add_zone(std::move(safety_zone));
  const ZoneId data_id = bundle.zones->add_zone(std::move(data_zone));
  risk::Conduit bridge;  // ZC003: gap 3, no countermeasures
  bridge.name = "bridge";
  bridge.from = safety_id;
  bridge.to = data_id;
  bundle.zones->add_conduit(std::move(bridge));
  risk::Conduit dangling;  // ZC001: endpoint zone never declared
  dangling.name = "dangling";
  dangling.from = safety_id;
  dangling.to = ZoneId{999};
  bundle.zones->add_conduit(std::move(dangling));
  // ZC004: every asset except the first is unzoned.
  // SA002: a locally hardened zone reachable over a bare conduit from the
  // soft data zone — the trusted-channel pivot undercuts its defences.
  // SA004: that conduit's crypto also exceeds both endpoint targets.
  risk::Zone hardened_zone;
  hardened_zone.name = "hardened";
  hardened_zone.target = {1, 1, 1, 1, 1, 1, 1};
  hardened_zone.countermeasures = {"secure-channel", "access-control"};
  const ZoneId hardened_id = bundle.zones->add_zone(std::move(hardened_zone));
  risk::Conduit pivot;
  pivot.name = "pivot";
  pivot.from = data_id;
  pivot.to = hardened_id;
  bundle.zones->add_conduit(std::move(pivot));
  risk::Conduit gilded;
  gilded.name = "gilded";
  gilded.from = data_id;
  gilded.to = hardened_id;
  gilded.countermeasures = {"secure-channel"};
  bundle.zones->add_conduit(std::move(gilded));

  // CV003: a detection rule watching a threat the TARA never lists.
  // CV004: a registered scenario exercising nothing catalogued.
  bundle.ids_rules = ids::detection_rule_table();
  bundle.ids_rules.push_back({"dead-rule", "signature",
                              "watches a threat the catalogue dropped",
                              {"no-such-threat"}});
  bundle.scenarios = analysis::scenario_registry();
  bundle.scenarios.push_back(
      {"orphan-scenario", "examples/nowhere.cpp", {"uncatalogued-threat"}});

  // GS001..GS004: a cyclic, evidence-dangling, open-goal argument with a
  // compliance mapping into the void.
  bundle.argument.emplace();
  bundle.evidence.emplace();
  const GsnId top = bundle.argument->add(assurance::GsnType::kGoal, "G-top",
                                         "system acceptably secure");
  const GsnId strategy = bundle.argument->add(assurance::GsnType::kStrategy,
                                              "S-argue", "argue over assets");
  const GsnId leaf = bundle.argument->add(assurance::GsnType::kGoal, "G-leaf",
                                          "asset secure");
  bundle.argument->support(top, strategy);
  bundle.argument->support(strategy, leaf);
  bundle.argument->support(leaf, top);  // GS001: cycle
  const GsnId solution = bundle.argument->add(assurance::GsnType::kSolution,
                                              "Sn-tests", "verification results");
  bundle.argument->support(strategy, solution);
  bundle.argument->bind_evidence(solution, EvidenceId{4242});  // GS002: dangling
  bundle.argument->add(assurance::GsnType::kGoal, "G-open",
                       "goal nobody developed");  // GS003
  bundle.compliance.emplace(assurance::machinery_requirements());
  bundle.compliance->map("MR-1.1.9", "G-missing");  // GS004

  // PK001: an endpoint enrolled under a CA the trust store never saw.
  crypto::Drbg drbg(2, "agrarsec-lint-defective");
  auto site_ca = pki::CertificateAuthority::create_root(
      "site-ca", drbg.generate32(), 0, 1000 * core::kHour);
  auto rogue_ca = pki::CertificateAuthority::create_root(
      "rogue-ca", drbg.generate32(), 0, 1000 * core::kHour);
  bundle.trust.emplace();
  if (auto status = bundle.trust->add_root(site_ca.certificate()); !status.ok()) {
    throw std::logic_error("trust store rejected root: " + status.error().to_string());
  }
  auto rogue = pki::enroll(rogue_ca, drbg, "impostor-forwarder",
                           pki::CertRole::kMachine, 0, 1000 * core::kHour);
  if (!rogue.ok()) throw std::logic_error("enrollment failed");
  bundle.endpoints.push_back({"impostor-forwarder", rogue.value().chain});
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return out.good();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--model=risk|assurance|pki|all|defective]\n"
               "          [--format=text|json] [--baseline=FILE]\n"
               "          [--write-baseline=FILE] [--coverage-json[=FILE]]\n"
               "          [--list-rules] [--stats[=FILE]]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_name = "all";
  std::string format = "text";
  std::string baseline_path;
  std::string write_baseline_path;
  bool list_rules = false;
  bool stats = false;
  std::string stats_path;
  bool coverage = false;
  std::string coverage_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> std::optional<std::string> {
      if (arg.rfind(prefix, 0) == 0) return arg.substr(std::strlen(prefix));
      return std::nullopt;
    };
    if (auto v = value_of("--model=")) model_name = *v;
    else if (auto v2 = value_of("--format=")) format = *v2;
    else if (auto v3 = value_of("--baseline=")) baseline_path = *v3;
    else if (auto v4 = value_of("--write-baseline=")) write_baseline_path = *v4;
    else if (arg == "--list-rules") list_rules = true;
    else if (arg == "--stats") stats = true;
    else if (auto v5 = value_of("--stats=")) { stats = true; stats_path = *v5; }
    else if (arg == "--coverage-json") coverage = true;
    else if (auto v6 = value_of("--coverage-json=")) {
      coverage = true;
      coverage_path = *v6;
    }
    else return usage(argv[0]);
  }
  if (format != "text" && format != "json") return usage(argv[0]);

  if (list_rules) {
    std::printf("%-5s  %-7s  %-12s  %-10s  %s\n", "rule", "sev", "family",
                "pass", "summary");
    for (const analysis::RuleInfo& rule : analysis::rule_catalogue()) {
      std::printf("%s  %-7s  %-12s  %-10s  %s\n", std::string(rule.id).c_str(),
                  std::string(analysis::severity_name(rule.severity)).c_str(),
                  std::string(rule.family).c_str(), std::string(rule.pass).c_str(),
                  std::string(rule.summary).c_str());
    }
    return 0;
  }

  ModelBundle bundle;
  try {
    if (model_name == "risk") {
      add_risk_model(bundle);
    } else if (model_name == "assurance") {
      add_assurance_model(bundle);
    } else if (model_name == "pki") {
      add_pki_model(bundle);
    } else if (model_name == "all") {
      add_risk_model(bundle);
      add_assurance_model(bundle);
      add_pki_model(bundle);
    } else if (model_name == "defective") {
      add_defective_model(bundle);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "agrarsec_lint: model construction failed: %s\n", e.what());
    return 3;
  }

  obs::Telemetry telemetry;
  const analysis::Analyzer analyzer;
  const obs::PhaseId ph_analyze = telemetry.tracer().phase("lint.analyze");
  std::vector<analysis::Diagnostic> findings;
  std::vector<analysis::PassStats> pass_stats;
  {
    const obs::Tracer::Span span{telemetry.tracer(), ph_analyze};
    findings = analyzer.analyze(bundle.view(), stats ? &pass_stats : nullptr);
  }

  if (stats) {
    obs::Registry& reg = telemetry.registry();
    reg.counter("lint.rules_run").add(analysis::rule_catalogue().size());
    reg.counter("lint.findings").add(findings.size());
    for (const analysis::Diagnostic& d : findings) {
      // Map the finding back to its rule family via the catalogue so the
      // per-family counters use the shipped taxonomy, not prefix guessing.
      std::string_view family = "unknown";
      for (const analysis::RuleInfo& rule : analysis::rule_catalogue()) {
        if (rule.id == d.rule) { family = rule.family; break; }
      }
      reg.counter("lint.findings." + std::string(family)).add();
    }
    const auto& analyze_stats = telemetry.tracer().stats(ph_analyze);
    reg.gauge("lint.analyze_wall_seconds")
        .set(static_cast<double>(analyze_stats.total_ns) / 1e9);
    for (const analysis::PassStats& pass : pass_stats) {
      reg.gauge("lint.pass." + pass.pass + ".wall_seconds")
          .set(static_cast<double>(pass.wall_ns) / 1e9);
      reg.counter("lint.pass." + pass.pass + ".findings").add(pass.findings);
    }
    const std::string stats_json = telemetry.to_json();
    if (stats_path.empty()) {
      std::fputs(stats_json.c_str(), stderr);
      std::fputc('\n', stderr);
    } else if (!write_file(stats_path, stats_json + "\n")) {
      std::fprintf(stderr, "agrarsec_lint: cannot write stats '%s'\n",
                   stats_path.c_str());
      return 2;
    }
  }

  if (!write_baseline_path.empty()) {
    const analysis::Baseline baseline = analysis::Baseline::from(findings);
    if (!write_file(write_baseline_path, baseline.to_json())) {
      std::fprintf(stderr, "agrarsec_lint: cannot write baseline '%s'\n",
                   write_baseline_path.c_str());
      return 2;
    }
  }

  if (coverage) {
    const std::string report = analysis::render_coverage_json(
        analysis::build_coverage(bundle.view()), bundle.view());
    if (coverage_path.empty()) {
      std::fputs(report.c_str(), stdout);
    } else if (!write_file(coverage_path, report)) {
      std::fprintf(stderr, "agrarsec_lint: cannot write coverage '%s'\n",
                   coverage_path.c_str());
      return 2;
    }
  }

  analysis::Baseline baseline;
  std::vector<std::string> stale;
  if (!baseline_path.empty()) {
    const auto content = read_file(baseline_path);
    if (!content) {
      std::fprintf(stderr, "agrarsec_lint: cannot read baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    std::string error;
    auto parsed = analysis::Baseline::parse(*content, &error);
    if (!parsed) {
      std::fprintf(stderr, "agrarsec_lint: bad baseline '%s': %s\n",
                   baseline_path.c_str(), error.c_str());
      return 2;
    }
    baseline = std::move(*parsed);
    // A suppression nothing matches anymore is a fixed finding that never
    // got un-suppressed: it fails the gate, so the change that fixes a
    // finding also deletes its entry and the baseline only shrinks.
    stale = baseline.stale_keys(findings);
    for (const std::string& key : stale) {
      std::fprintf(stderr, "agrarsec_lint: stale baseline entry (delete it): %s\n",
                   key.c_str());
    }
  }

  const std::vector<analysis::Diagnostic> fresh = baseline.filter(findings);
  if (format == "json") {
    std::fputs(analysis::render_json(fresh).c_str(), stdout);
  } else {
    std::printf("agrarsec-lint: model '%s', %zu finding(s) (%zu baselined)\n",
                model_name.c_str(), findings.size(), findings.size() - fresh.size());
    std::fputs(analysis::render_text(fresh).c_str(), stdout);
  }

  return analysis::count_severity(fresh, analysis::Severity::kError) > 0 || !stale.empty()
             ? 1
             : 0;
}
