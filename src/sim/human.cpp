#include "sim/human.h"

#include <cmath>
#include <numbers>

namespace agrarsec::sim {

Human::Human(HumanId id, std::string name, core::Vec2 position, core::Vec2 work_anchor,
             HumanConfig config, core::Rng rng)
    : id_(id), name_(std::move(name)), position_(position), work_anchor_(work_anchor),
      config_(config), rng_(rng) {}

void Human::pick_waypoint(core::Rng& rng) {
  const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
  const double radius = kWorkAreaRadiusM * std::sqrt(rng.next_double());
  waypoint_ = work_anchor_ + core::Vec2{std::cos(angle), std::sin(angle)} * radius;
}

void Human::step(core::SimDuration dt_ms, core::Rng& rng) {
  if (pause_remaining_ > 0) {
    pause_remaining_ -= dt_ms;
    return;
  }
  if (!waypoint_) pick_waypoint(rng);

  const core::Vec2 delta = *waypoint_ - position_;
  const double dist = delta.norm();
  const double step_len = kWalkSpeedMps * static_cast<double>(dt_ms) / core::kSecond;
  if (dist <= step_len) {
    position_ = *waypoint_;
    waypoint_.reset();
    if (rng.chance(config_.pause_probability)) {
      pause_remaining_ = static_cast<core::SimDuration>(
          rng.exponential(static_cast<double>(config_.pause_mean)));
    }
    return;
  }
  position_ = position_ + delta * (step_len / dist);
}

}  // namespace agrarsec::sim
