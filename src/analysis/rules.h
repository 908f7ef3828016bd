// The rule pack: deterministic checks over the assembled model, grouped
// into passes. Each pass appends raw diagnostics; the Analyzer sorts and
// dedupes them into the final report.
//
// Structural passes (one model family each, PR 4):
//   ZC — IEC 62443 zone/conduit structure and SL gap analysis
//   TA — ISO/SAE 21434 TARA treatment and reference integrity
//   GS — GSN argument structure and compliance mapping integrity
//   PK — PKI trust relationships
//
// Semantic passes (cross-model, DESIGN.md §15):
//   SA — attack-path reachability: achieved SL under conduit propagation
//        vs. zone targets and asset CALs (analysis/reachability.h)
//   CM — TARA↔GSN↔zone consistency: treatments claimed by goals, per-zone
//        residual-risk budgets, treatment effectiveness
//   CV — coverage matrix: TARA threats × IDS rule table × executable
//        scenario registry (analysis/coverage.h)
#pragma once

#include <string_view>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/model.h"

namespace agrarsec::analysis {

/// TA001: initial risk at or above this retained untreated is an error.
/// CM004 reuses it as the bar a treatment must push residual risk under.
inline constexpr risk::RiskValue kHighRisk = 4;

struct AnalyzerConfig {
  /// CM003: per-zone budget for the sum of residual risks of UNTREATED
  /// (retained) threat scenarios against the zone's assets. A zone
  /// accumulating more retained residual risk than this needs explicit
  /// treatment decisions, not silent acceptance.
  risk::RiskValue zone_residual_budget = 6;
};

void run_zone_rules(const Model& model, const AnalyzerConfig& config,
                    std::vector<Diagnostic>& out);
void run_tara_rules(const Model& model, const AnalyzerConfig& config,
                    std::vector<Diagnostic>& out);
void run_gsn_rules(const Model& model, const AnalyzerConfig& config,
                   std::vector<Diagnostic>& out);
void run_pki_rules(const Model& model, const AnalyzerConfig& config,
                   std::vector<Diagnostic>& out);
/// SA + CM families (rules_semantic.cpp).
void run_semantic_rules(const Model& model, const AnalyzerConfig& config,
                        std::vector<Diagnostic>& out);
/// CV family (coverage.cpp).
void run_coverage_rules(const Model& model, const AnalyzerConfig& config,
                        std::vector<Diagnostic>& out);

/// Static description of one rule (for --list-rules and DESIGN.md §10/§15).
struct RuleInfo {
  std::string_view id;
  Severity severity;
  std::string_view family;
  /// Analyzer pass that emits the rule: "structural", "semantic" or
  /// "coverage" — the column --list-rules prints so a reader can tell
  /// single-model checks from cross-model reasoning at a glance.
  std::string_view pass;
  std::string_view summary;
};

/// All shipped rules, ordered by id.
[[nodiscard]] const std::vector<RuleInfo>& rule_catalogue();

}  // namespace agrarsec::analysis
