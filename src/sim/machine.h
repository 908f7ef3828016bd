// Machine kinematics: forwarders (autonomous log carriers), manually
// operated harvesters, and observation drones. Machines follow waypoint
// routes; the safety stack can command e-stops and degraded (slow) modes,
// which is how cybersecurity events propagate into physical behaviour.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "core/geometry.h"
#include "core/rng.h"
#include "core/time.h"
#include "core/types.h"

namespace agrarsec::sim {

class PathPlanner;

enum class MachineKind : std::uint8_t { kForwarder = 0, kHarvester = 1, kDrone = 2 };

[[nodiscard]] std::string_view machine_kind_name(MachineKind kind);

enum class DriveMode : std::uint8_t {
  kNormal = 0,
  kDegraded = 1,   ///< reduced speed (e.g. lost collaborative safety cover)
  kStopped = 2,    ///< e-stop latched; needs explicit release
};

/// Speed cap in DriveMode::kDegraded.
inline constexpr double kDegradedSpeedMps = 1.0;
/// Height of a ground machine's cab-top sensor mast.
inline constexpr double kSensorHeightM = 2.6;
/// Forwarder bunk volume.
inline constexpr double kLoadCapacityM3 = 14.0;

struct MachineConfig {
  double max_speed_mps = 4.0;        ///< forwarder off-road speed
  double turn_rate_rps = 0.6;        ///< yaw rate limit
  double body_radius_m = 1.8;
  double altitude_m = 0.0;           ///< >0 for drones (AGL)
};

class Machine {
 public:
  /// `rng` is the machine's private random stream. The worksite forks it
  /// once at spawn, keyed by the machine id (core::Rng::fork_stream), so
  /// the machine's RNG-dependent behaviour is independent of every other
  /// entity's draws — the invariant that lets the per-machine phase run
  /// on any thread without perturbing outcomes.
  Machine(MachineId id, MachineKind kind, std::string name, core::Vec2 position,
          MachineConfig config, core::Rng rng = core::Rng{0});

  [[nodiscard]] MachineId id() const { return id_; }
  [[nodiscard]] MachineKind kind() const { return kind_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] core::Vec2 position() const { return position_; }
  [[nodiscard]] double heading() const { return heading_; }
  [[nodiscard]] double speed() const { return speed_; }
  [[nodiscard]] const MachineConfig& config() const { return config_; }
  [[nodiscard]] DriveMode mode() const { return mode_; }
  /// Private per-machine random stream (see constructor).
  [[nodiscard]] core::Rng& rng() { return rng_; }

  /// Height of the machine's sensor origin above ground (drones: altitude).
  [[nodiscard]] double sensor_agl() const {
    return kind_ == MachineKind::kDrone ? config_.altitude_m : kSensorHeightM;
  }

  // --- routing ---
  /// Untracked single-waypoint route: replaces the route with `target`
  /// in the existing waypoint storage, so a per-step retarget (the drone
  /// orbit) allocates nothing, and drops the tracked goal.
  void head_to(core::Vec2 target);
  /// Route with goal tracking: remembers the goal the route was planned
  /// for and the planner generation it was planned under, so later calls
  /// can lazily reuse it (try_reuse_route).
  void set_route(std::deque<core::Vec2> waypoints, core::Vec2 goal,
                 std::uint64_t planner_generation);
  void push_waypoint(core::Vec2 waypoint);
  [[nodiscard]] bool idle() const { return waypoints_.empty(); }
  [[nodiscard]] std::optional<core::Vec2> current_waypoint() const;

  /// Lazy re-planning: when the machine is mid-route towards a tracked
  /// goal and the new goal moved at most 6 m,
  /// the existing route is kept and only its final waypoint is retargeted.
  /// Reuse requires the planner's blocked-grid generation to match the one
  /// the route was planned under (any set_region_blocked since then
  /// declines wholesale — intermediate legs are not re-verified leg by
  /// leg), plus segment_clear on the two legs outside the planned
  /// polyline: pose->first waypoint and the retargeted final leg. Returns
  /// true when the route was reused (no re-plan needed).
  bool try_reuse_route(core::Vec2 goal, const PathPlanner& planner);

  /// Goal of the current tracked route (nullopt for untracked routes).
  [[nodiscard]] std::optional<core::Vec2> route_goal() const { return route_goal_; }

  // --- safety interface ---
  /// Latches an emergency stop. `hard` brakes at 3 m/s², otherwise
  /// a controlled stop at twice the braking distance.
  void emergency_stop(bool hard = true);
  void release_stop();
  void set_degraded(bool degraded);
  [[nodiscard]] bool stopped() const { return mode_ == DriveMode::kStopped; }

  // --- load (forwarders) ---
  void load_logs(double volume_m3);
  double unload_logs();  ///< empties the bunk, returns volume removed
  [[nodiscard]] double load_m3() const { return load_m3_; }
  [[nodiscard]] bool full() const { return load_m3_ >= kLoadCapacityM3 - 1e-9; }

  /// Advances kinematics by dt. Returns distance travelled (m).
  double step(core::SimDuration dt_ms);

  /// Cumulative odometer (m).
  [[nodiscard]] double odometer() const { return odometer_; }

 private:
  MachineId id_;
  MachineKind kind_;
  std::string name_;
  core::Vec2 position_;
  double heading_ = 0.0;
  double speed_ = 0.0;
  MachineConfig config_;
  core::Rng rng_;
  DriveMode mode_ = DriveMode::kNormal;
  bool hard_braking_ = false;
  std::deque<core::Vec2> waypoints_;
  std::optional<core::Vec2> route_goal_;
  std::uint64_t route_generation_ = 0;  ///< planner generation of the route
  double load_m3_ = 0.0;
  double odometer_ = 0.0;

  static constexpr double kWaypointTolerance = 1.5;  // m
};

}  // namespace agrarsec::sim
