#include "safety/fusion.h"

#include <algorithm>

#include "core/geometry.h"

namespace agrarsec::safety {

namespace {
/// Detections within this distance of a track merge into it.
constexpr double kAssociationRadiusM = 3.0;
}  // namespace

DetectionFusion::DetectionFusion(FusionConfig config) : config_(config) {}

void DetectionFusion::add_local(const std::vector<sensors::Detection>& detections) {
  local_.insert(local_.end(), detections.begin(), detections.end());
}

void DetectionFusion::add_remote(const sensors::Detection& detection) {
  remote_.push_back(detection);
  ++remote_reports_;
}

const std::vector<FusedTrack>& DetectionFusion::fuse(core::SimTime now) {
  auto drop_stale = [&](std::vector<sensors::Detection>& v) {
    std::erase_if(v, [&](const sensors::Detection& d) {
      return d.time + config_.freshness_window < now;
    });
  };
  drop_stale(local_);
  drop_stale(remote_);

  tracks_.clear();
  auto associate = [&](const sensors::Detection& d, bool remote) {
    const double weight = remote ? config_.remote_weight : 1.0;
    const double score = d.confidence * weight;
    for (FusedTrack& t : tracks_) {
      if (core::within(t.position, d.position, kAssociationRadiusM)) {
        // Merge: keep the higher-confidence position, accumulate score
        // with a noisy-OR so two weak agreeing sources beat either alone.
        if (score > t.confidence) t.position = d.position;
        t.confidence = 1.0 - (1.0 - t.confidence) * (1.0 - score);
        t.local_contribution |= !remote;
        t.remote_contribution |= remote;
        t.last_update = std::max(t.last_update, d.time);
        return;
      }
    }
    FusedTrack t;
    t.position = d.position;
    t.confidence = score;
    t.local_contribution = !remote;
    t.remote_contribution = remote;
    t.last_update = d.time;
    tracks_.push_back(t);
  };

  for (const auto& d : local_) associate(d, false);
  for (const auto& d : remote_) associate(d, true);

  if (config_.policy == FusionPolicy::kConfidenceWeighted) {
    std::erase_if(tracks_, [&](const FusedTrack& t) {
      return t.confidence < config_.confidence_gate;
    });
  }
  return tracks_;
}

}  // namespace agrarsec::safety
