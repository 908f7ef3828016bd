// Human workers on the partially-autonomous worksite. The paper's central
// safety function is detecting people close to the autonomous forwarder;
// workers here move with a random-waypoint model biased towards the
// manual harvesting area, which is where forwarders and people actually
// mix.
#pragma once

#include <optional>
#include <string>

#include "core/geometry.h"
#include "core/rng.h"
#include "core/time.h"
#include "core/types.h"

namespace agrarsec::sim {

/// Walking speed of a worker.
inline constexpr double kWalkSpeedMps = 1.3;
/// Waypoints are drawn within this radius of the work anchor.
inline constexpr double kWorkAreaRadiusM = 60.0;
/// Body height of a worker (perception aims at 0.7 of it).
inline constexpr double kBodyHeightM = 1.7;

struct HumanConfig {
  double pause_probability = 0.3;    ///< chance of pausing at a waypoint
  core::SimDuration pause_mean = 20 * core::kSecond;
};

class Human {
 public:
  /// `rng` is the worker's private random stream, forked at spawn keyed
  /// by the human id (core::Rng::fork_stream) — the same per-entity
  /// scheme as Machine, so a worker's walk is reproducible regardless of
  /// what any other entity drew or which thread stepped them.
  Human(HumanId id, std::string name, core::Vec2 position, core::Vec2 work_anchor,
        HumanConfig config, core::Rng rng = core::Rng{0});

  [[nodiscard]] HumanId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] core::Vec2 position() const { return position_; }
  [[nodiscard]] double height() const { return kBodyHeightM; }

  /// Re-anchors the work area (e.g. following the harvester).
  void set_work_anchor(core::Vec2 anchor) { work_anchor_ = anchor; }

  /// Advances the walk using the human's own stream.
  void step(core::SimDuration dt_ms) { step(dt_ms, rng_); }
  /// Legacy overload drawing from an external stream (standalone tests).
  void step(core::SimDuration dt_ms, core::Rng& rng);

 private:
  void pick_waypoint(core::Rng& rng);

  HumanId id_;
  std::string name_;
  core::Vec2 position_;
  core::Vec2 work_anchor_;
  HumanConfig config_;
  core::Rng rng_;
  std::optional<core::Vec2> waypoint_;
  core::SimDuration pause_remaining_ = 0;
};

}  // namespace agrarsec::sim
