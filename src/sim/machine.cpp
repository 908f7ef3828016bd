#include "sim/machine.h"

#include <algorithm>
#include <cmath>

#include "sim/pathfinding.h"

namespace agrarsec::sim {

namespace {
/// E-stop deceleration; a controlled (soft) stop brakes at half of it.
constexpr double kBrakeDecelMps2 = 3.0;
/// Lazy re-planning: when a new goal lies within this distance of the
/// goal the current route was planned for, the route is retargeted
/// instead of re-planned (provided the remaining legs stay clear).
constexpr double kReplanThresholdM = 6.0;
}  // namespace

std::string_view machine_kind_name(MachineKind kind) {
  switch (kind) {
    case MachineKind::kForwarder: return "forwarder";
    case MachineKind::kHarvester: return "harvester";
    case MachineKind::kDrone: return "drone";
  }
  return "?";
}

Machine::Machine(MachineId id, MachineKind kind, std::string name, core::Vec2 position,
                 MachineConfig config, core::Rng rng)
    : id_(id), kind_(kind), name_(std::move(name)), position_(position),
      config_(config), rng_(rng) {}

void Machine::head_to(core::Vec2 target) {
  waypoints_.clear();
  waypoints_.push_back(target);
  route_goal_ = std::nullopt;  // untracked route: nothing to lazily reuse
}

void Machine::set_route(std::deque<core::Vec2> waypoints, core::Vec2 goal,
                        std::uint64_t planner_generation) {
  waypoints_ = std::move(waypoints);
  route_goal_ = goal;
  route_generation_ = planner_generation;
}

void Machine::push_waypoint(core::Vec2 waypoint) {
  waypoints_.push_back(waypoint);
  route_goal_ = std::nullopt;  // appended legs invalidate the tracked goal
}

bool Machine::try_reuse_route(core::Vec2 goal, const PathPlanner& planner) {
  if (!route_goal_ || waypoints_.empty()) return false;
  // The blocked grid must be untouched since the route was planned:
  // intermediate legs are not re-verified here, so any set_region_blocked
  // (a new hazard could cut a middle leg) declines reuse wholesale.
  if (planner.generation() != route_generation_) return false;
  if (core::distance(*route_goal_, goal) > kReplanThresholdM) return false;
  // The leg currently being driven runs from the machine's live pose, which
  // is off the planned polyline — it was never verified by the search.
  if (!planner.segment_clear(position_, waypoints_.front())) return false;
  // Retargeting moves the final waypoint; the final leg must stay clear
  // from wherever it is entered.
  const core::Vec2 tail_from =
      waypoints_.size() >= 2 ? waypoints_[waypoints_.size() - 2] : position_;
  if (!planner.segment_clear(tail_from, goal)) return false;
  waypoints_.back() = goal;
  route_goal_ = goal;
  return true;
}

std::optional<core::Vec2> Machine::current_waypoint() const {
  if (waypoints_.empty()) return std::nullopt;
  return waypoints_.front();
}

void Machine::emergency_stop(bool hard) {
  mode_ = DriveMode::kStopped;
  hard_braking_ = hard;
}

void Machine::release_stop() {
  if (mode_ == DriveMode::kStopped) mode_ = DriveMode::kNormal;
}

void Machine::set_degraded(bool degraded) {
  if (mode_ == DriveMode::kStopped) return;  // stop wins
  mode_ = degraded ? DriveMode::kDegraded : DriveMode::kNormal;
}

void Machine::load_logs(double volume_m3) {
  load_m3_ = std::min(kLoadCapacityM3, load_m3_ + volume_m3);
}

double Machine::unload_logs() {
  const double v = load_m3_;
  load_m3_ = 0.0;
  return v;
}

double Machine::step(core::SimDuration dt_ms) {
  const double dt = static_cast<double>(dt_ms) / core::kSecond;

  if (mode_ == DriveMode::kStopped) {
    // Decelerate to rest.
    const double decel = hard_braking_ ? kBrakeDecelMps2 : kBrakeDecelMps2 * 0.5;
    speed_ = std::max(0.0, speed_ - decel * dt);
    const double travelled = speed_ * dt;
    position_ = position_ + core::Vec2{std::cos(heading_), std::sin(heading_)} * travelled;
    odometer_ += travelled;
    return travelled;
  }

  if (waypoints_.empty()) {
    speed_ = 0.0;
    return 0.0;
  }

  const core::Vec2 target = waypoints_.front();
  const core::Vec2 delta = target - position_;
  const double dist = delta.norm();
  if (dist < kWaypointTolerance) {
    waypoints_.pop_front();
    return step(0);  // re-evaluate with next waypoint (zero time)
  }

  // Turn towards the target with a yaw-rate limit.
  const double desired_heading = std::atan2(delta.y, delta.x);
  const double heading_error = core::wrap_angle(desired_heading - heading_);
  const double max_turn = config_.turn_rate_rps * dt;
  heading_ += std::clamp(heading_error, -max_turn, max_turn);
  heading_ = core::wrap_angle(heading_);

  // Speed: slow down in tight turns, when degraded, and on waypoint
  // approach. The approach slowdown keeps the turning radius
  // (speed / turn_rate) below the waypoint tolerance — without it a fast
  // machine orbits a waypoint it can never turn tightly enough to hit.
  double target_speed =
      (mode_ == DriveMode::kDegraded ? kDegradedSpeedMps : config_.max_speed_mps) *
      (std::abs(heading_error) > 0.7 ? 0.4 : 1.0);
  const double capture_speed = config_.turn_rate_rps * kWaypointTolerance * 0.8;
  if (dist < 8.0) {
    target_speed = std::min(target_speed, std::max(capture_speed, dist * 0.4));
  }
  // Simple first-order speed response.
  speed_ += std::clamp(target_speed - speed_, -kBrakeDecelMps2 * dt, kBrakeDecelMps2 * dt);

  const double travelled = std::min(speed_ * dt, dist);
  position_ = position_ + core::Vec2{std::cos(heading_), std::sin(heading_)} * travelled;
  odometer_ += travelled;
  return travelled;
}

}  // namespace agrarsec::sim
