#include "analysis/analyzer.h"

#include <algorithm>
#include <chrono>

#include "core/json.h"

namespace agrarsec::analysis {

using core::Json;

std::vector<Diagnostic> Analyzer::analyze(const Model& model) const {
  return analyze(model, nullptr);
}

std::vector<Diagnostic> Analyzer::analyze(const Model& model,
                                          std::vector<PassStats>* stats) const {
  using RunFn = void (*)(const Model&, const AnalyzerConfig&,
                         std::vector<Diagnostic>&);
  struct Pass {
    const char* name;
    RunFn run;
  };
  static constexpr Pass kPasses[] = {
      {"zone-conduit", run_zone_rules}, {"tara", run_tara_rules},
      {"gsn", run_gsn_rules},           {"pki", run_pki_rules},
      {"semantic", run_semantic_rules}, {"coverage", run_coverage_rules},
  };

  std::vector<Diagnostic> out;
  for (const Pass& pass : kPasses) {
    const std::size_t before = out.size();
    if (stats == nullptr) {
      pass.run(model, config_, out);
      continue;
    }
    const auto start = std::chrono::steady_clock::now();
    pass.run(model, config_, out);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    PassStats entry;
    entry.pass = pass.name;
    entry.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    entry.findings = out.size() - before;
    stats->push_back(std::move(entry));
  }

  std::sort(out.begin(), out.end(), diagnostic_less);
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Diagnostic& a, const Diagnostic& b) {
                          return !diagnostic_less(a, b) && !diagnostic_less(b, a);
                        }),
            out.end());
  return out;
}

std::size_t count_severity(const std::vector<Diagnostic>& diagnostics,
                           Severity severity) {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [severity](const Diagnostic& d) { return d.severity == severity; }));
}

std::string render_text(const std::vector<Diagnostic>& diagnostics) {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += std::string(severity_name(d.severity));
    out += '[';
    out += d.rule;
    out += "]: ";
    out += d.message;
    out += '\n';
    if (!d.entities.empty()) {
      out += "  at: ";
      for (std::size_t i = 0; i < d.entities.size(); ++i) {
        if (i != 0) out += ", ";
        out += d.entities[i];
      }
      out += '\n';
    }
    if (!d.hint.empty()) {
      out += "  hint: " + d.hint + '\n';
    }
  }
  out += std::to_string(diagnostics.size()) + " finding(s): " +
         std::to_string(count_severity(diagnostics, Severity::kError)) + " error, " +
         std::to_string(count_severity(diagnostics, Severity::kWarning)) +
         " warning, " + std::to_string(count_severity(diagnostics, Severity::kInfo)) +
         " info\n";
  return out;
}

std::string render_json(const std::vector<Diagnostic>& diagnostics) {
  Json findings = Json::array();
  for (const Diagnostic& d : diagnostics) {
    Json finding = Json::object();
    finding.set("rule", Json::string(d.rule));
    finding.set("severity", Json::string(std::string(severity_name(d.severity))));
    finding.set("message", Json::string(d.message));
    Json entities = Json::array();
    for (const std::string& entity : d.entities) {
      entities.push(Json::string(entity));
    }
    finding.set("entities", std::move(entities));
    finding.set("hint", Json::string(d.hint));
    findings.push(std::move(finding));
  }

  Json summary = Json::object();
  summary.set("errors",
              Json::number(static_cast<double>(count_severity(diagnostics, Severity::kError))));
  summary.set("warnings",
              Json::number(static_cast<double>(count_severity(diagnostics, Severity::kWarning))));
  summary.set("infos",
              Json::number(static_cast<double>(count_severity(diagnostics, Severity::kInfo))));

  Json report = Json::object();
  report.set("version", Json::number(1));
  report.set("findings", std::move(findings));
  report.set("summary", std::move(summary));
  return report.serialize(2) + "\n";
}

}  // namespace agrarsec::analysis
