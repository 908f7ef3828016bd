// Coverage-pass tests (CV family): matrix join semantics, per-rule
// broken/repaired fixtures, the JSON report shape, and the drift guards
// keeping the IDS rule table and scenario registry in sync with the TARA
// threat catalogue.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "analysis/analyzer.h"
#include "analysis/coverage.h"
#include "core/json.h"
#include "ids/rule_table.h"
#include "risk/catalog.h"

namespace agrarsec::analysis {
namespace {

using core::Json;

std::vector<Diagnostic> of_rule(const std::vector<Diagnostic>& diagnostics,
                                const std::string& rule) {
  std::vector<Diagnostic> out;
  std::copy_if(diagnostics.begin(), diagnostics.end(), std::back_inserter(out),
               [&](const Diagnostic& d) { return d.rule == rule; });
  return out;
}

/// One treated threat ("link-spoof") with configurable detection/scenario
/// mappings.
struct CvFixture {
  risk::ItemDefinition item;
  std::optional<risk::Tara> tara;
  std::vector<ids::DetectionRuleInfo> rules;
  std::vector<ExecutableScenario> scenarios;

  CvFixture(bool detected, bool exercised) {
    item.name = "test-item";
    risk::Asset asset;
    asset.id = AssetId{1};
    asset.name = "radio-link";
    asset.category = risk::AssetCategory::kCommunication;
    item.assets.push_back(asset);
    tara.emplace(item);
    risk::ThreatScenario threat;
    threat.id = ThreatId{1};
    threat.asset = AssetId{1};
    threat.name = "link-spoof";
    threat.damage.safety = risk::ImpactLevel::kSevere;
    tara->add_threat(std::move(threat));
    tara->assess({});  // risk 5: treated (avoid)

    rules.push_back({"spoof-detector", "signature", "detects spoofing",
                     detected ? std::vector<std::string>{"link-spoof"}
                              : std::vector<std::string>{}});
    scenarios.push_back({"spoof-demo", "examples/demo.cpp",
                         exercised ? std::vector<std::string>{"link-spoof"}
                                   : std::vector<std::string>{}});
  }

  [[nodiscard]] Model model() const {
    Model m;
    m.tara = &*tara;
    m.ids_rules = &rules;
    m.scenarios = &scenarios;
    return m;
  }
};

TEST(CoverageRules, CV001_TreatedThreatWithoutDetection) {
  const CvFixture broken(false, true);
  const auto findings = of_rule(Analyzer{}.analyze(broken.model()), "CV001");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_EQ(findings[0].entities, (std::vector<std::string>{"threat:link-spoof"}));

  const CvFixture repaired(true, true);
  EXPECT_TRUE(of_rule(Analyzer{}.analyze(repaired.model()), "CV001").empty());
}

TEST(CoverageRules, CV002_TreatedThreatWithoutScenario) {
  const CvFixture broken(true, false);
  const auto findings = of_rule(Analyzer{}.analyze(broken.model()), "CV002");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].entities, (std::vector<std::string>{"threat:link-spoof"}));

  const CvFixture repaired(true, true);
  EXPECT_TRUE(of_rule(Analyzer{}.analyze(repaired.model()), "CV002").empty());
}

TEST(CoverageRules, CV003_DeadDetectionRule) {
  CvFixture fixture(true, true);
  fixture.rules.push_back(
      {"dead", "anomaly", "watches nothing real", {"no-such-threat"}});
  const auto findings = of_rule(Analyzer{}.analyze(fixture.model()), "CV003");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kInfo);
  EXPECT_EQ(findings[0].entities, (std::vector<std::string>{"ids-rule:dead"}));
}

TEST(CoverageRules, CV004_OrphanScenario) {
  CvFixture fixture(true, true);
  fixture.scenarios.push_back(
      {"orphan", "examples/old.cpp", {"retired-threat"}});
  const auto findings = of_rule(Analyzer{}.analyze(fixture.model()), "CV004");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].entities, (std::vector<std::string>{"scenario:orphan"}));
}

TEST(CoverageMatrixTest, JoinsAllThreeDirections) {
  const CvFixture fixture(true, true);
  const CoverageMatrix matrix = build_coverage(fixture.model());
  ASSERT_EQ(matrix.threats.size(), 1u);
  EXPECT_EQ(matrix.threats[0].threat, "link-spoof");
  EXPECT_EQ(matrix.threats[0].treatment, "avoid");
  EXPECT_EQ(matrix.threats[0].detections,
            (std::vector<std::string>{"spoof-detector"}));
  EXPECT_EQ(matrix.threats[0].scenarios, (std::vector<std::string>{"spoof-demo"}));
  EXPECT_TRUE(matrix.dead_rules.empty());
  EXPECT_TRUE(matrix.orphan_scenarios.empty());
}

TEST(CoverageMatrixTest, JsonReportShapeAndDeterminism) {
  const CvFixture fixture(true, false);
  const auto render = [&] {
    return render_coverage_json(build_coverage(fixture.model()), fixture.model());
  };
  const std::string report = render();
  EXPECT_EQ(report, render());  // byte-identical across runs

  const auto parsed = Json::parse(report);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_NE(parsed->find("threats"), nullptr);
  ASSERT_NE(parsed->find("rules"), nullptr);
  ASSERT_NE(parsed->find("scenarios"), nullptr);
  const Json* summary = parsed->find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("threats")->as_number(), 1.0);
  EXPECT_EQ(summary->find("detected")->as_number(), 1.0);
  EXPECT_EQ(summary->find("exercised")->as_number(), 0.0);
}

// --- drift guards over the shipped tables ---------------------------------

TEST(RuleTableSync, DetectionRuleTableMapsOnlyCataloguedThreats) {
  const auto tara = risk::build_forestry_tara();
  std::set<std::string> catalogued;
  for (const auto& result : tara.results()) catalogued.insert(result.scenario.name);

  std::set<std::string> seen_ids;
  for (const ids::DetectionRuleInfo& rule : ids::detection_rule_table()) {
    EXPECT_TRUE(seen_ids.insert(rule.id).second) << "duplicate rule " << rule.id;
    EXPECT_FALSE(rule.threats.empty()) << rule.id << " maps no threat";
    for (const std::string& threat : rule.threats) {
      EXPECT_TRUE(catalogued.contains(threat))
          << "rule " << rule.id << " maps unknown threat '" << threat << "'";
    }
  }
  // Ordered by id so the table (and every report built from it) is
  // deterministic by construction.
  EXPECT_TRUE(std::is_sorted(seen_ids.begin(), seen_ids.end()));
}

TEST(RuleTableSync, ScenarioRegistryMapsOnlyCataloguedThreats) {
  const auto tara = risk::build_forestry_tara();
  std::set<std::string> catalogued;
  for (const auto& result : tara.results()) catalogued.insert(result.scenario.name);

  std::set<std::string> seen_names;
  for (const ExecutableScenario& scenario : scenario_registry()) {
    EXPECT_TRUE(seen_names.insert(scenario.name).second)
        << "duplicate scenario " << scenario.name;
    EXPECT_FALSE(scenario.location.empty());
    EXPECT_FALSE(scenario.threats.empty()) << scenario.name << " maps no threat";
    for (const std::string& threat : scenario.threats) {
      EXPECT_TRUE(catalogued.contains(threat))
          << "scenario " << scenario.name << " exercises unknown threat '"
          << threat << "'";
    }
  }
}

TEST(RuleTableSync, ShippedTablesProduceNoDeadOrOrphanFindings) {
  // The committed rule table and scenario registry must stay live against
  // the committed threat catalogue — CV003/CV004 on the real model means
  // someone edited one side without the other.
  const auto tara = risk::build_forestry_tara();
  const auto& rules = ids::detection_rule_table();
  const auto& scenarios = scenario_registry();
  Model model;
  model.tara = &tara;
  model.ids_rules = &rules;
  model.scenarios = &scenarios;
  const auto findings = Analyzer{}.analyze(model);
  EXPECT_TRUE(of_rule(findings, "CV003").empty());
  EXPECT_TRUE(of_rule(findings, "CV004").empty());
}

}  // namespace
}  // namespace agrarsec::analysis
