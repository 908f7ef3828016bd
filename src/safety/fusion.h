// Collaborative people-detection fusion — the paper's Figure 2 safety
// function. The forwarder fuses its own sensor frames with detection
// reports received from the drone over the radio link. Two policies are
// provided (an ablation in the benches):
//   kUnion             any sufficiently fresh detection counts
//   kConfidenceWeighted sources are weighted and a fused score gates
#pragma once

#include <cstdint>
#include <vector>

#include "core/time.h"
#include "sensors/detection.h"

namespace agrarsec::safety {

enum class FusionPolicy : std::uint8_t { kUnion = 0, kConfidenceWeighted = 1 };

struct FusionConfig {
  FusionPolicy policy = FusionPolicy::kUnion;
  core::SimDuration freshness_window = 1500;  ///< ms; older inputs are stale
  double confidence_gate = 0.5;               ///< weighted policy threshold
  double remote_weight = 0.8;                 ///< trust discount for radio reports
};

/// A fused track: best position estimate plus provenance.
struct FusedTrack {
  core::Vec2 position;
  double confidence = 0.0;
  bool local_contribution = false;
  bool remote_contribution = false;
  core::SimTime last_update = 0;
};

class DetectionFusion {
 public:
  explicit DetectionFusion(FusionConfig config = {});

  /// Feeds local (on-machine) sensor detections.
  void add_local(const std::vector<sensors::Detection>& detections);

  /// Feeds a remote report (e.g. drone detection received over the link).
  void add_remote(const sensors::Detection& detection);

  /// Produces the current fused tracks at `now`, dropping stale inputs.
  /// The tracks live in a buffer the fusion reuses: the reference stays
  /// valid, and its contents current, until the next fuse().
  [[nodiscard]] const std::vector<FusedTrack>& fuse(core::SimTime now);

  /// The tracks of the last fuse() (empty before the first).
  [[nodiscard]] const std::vector<FusedTrack>& tracks() const { return tracks_; }

  [[nodiscard]] const FusionConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t remote_reports() const { return remote_reports_; }

 private:
  FusionConfig config_;
  std::vector<sensors::Detection> local_;
  std::vector<sensors::Detection> remote_;
  std::vector<FusedTrack> tracks_;
  std::uint64_t remote_reports_ = 0;
};

}  // namespace agrarsec::safety
