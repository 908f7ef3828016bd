// CASCADE-style asset-driven Security Assurance Case construction (the
// approach of the paper's ref [39], which §V proposes transferring to
// forestry): the SAC skeleton is generated from the TARA — top security
// claim, one sub-goal per asset, one claim per threat scenario arguing
// its residual risk is acceptable, supported by solutions referencing the
// applied controls' verification evidence. Extended here (as the paper
// suggests) with a safety-interplay leg fed by the co-analysis.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "assurance/evidence.h"
#include "assurance/gsn.h"
#include "risk/coanalysis.h"
#include "risk/tara.h"

namespace agrarsec::assurance {

struct CascadeResult {
  ArgumentModel argument;
  /// control id -> evidence item the generator registered for it.
  std::unordered_map<std::string, EvidenceId> control_evidence;
  /// threat id value -> goal node arguing that threat's treatment.
  std::unordered_map<std::uint64_t, GsnId> threat_goals;
  GsnId top_goal;
};

/// Builds the SAC for an assessed TARA. `registry` receives the generated
/// evidence items (so callers can later update confidences from live
/// artifacts and re-evaluate).
[[nodiscard]] CascadeResult build_security_case(const risk::Tara& tara,
                                                EvidenceRegistry& registry);

/// Adds the safety-interplay argument leg from co-analysis verdicts:
/// per hazard, a goal claiming the hazard stays controlled under the
/// linked cyber attacks, supported by the co-analysis evidence.
void extend_with_coanalysis(CascadeResult& result,
                            const std::vector<risk::HazardVerdict>& verdicts,
                            EvidenceRegistry& registry);

}  // namespace agrarsec::assurance
