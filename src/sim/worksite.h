// The partially-autonomous forestry worksite of the paper's Figure 1:
// autonomous forwarders cycling logs from harvest piles to a landing
// area, a manually-operated harvester producing piles, human workers, and
// an observation drone. The worksite owns the clock and steps all agents;
// the security/safety stacks hook in from outside via references.
//
// Stepping (DESIGN.md §9, §17): step() runs on the calling thread; the
// parallel grain is the whole worksite session (service::FleetService).
// The determinism contract is decide -> drain: per-machine decisions read
// the worksite as of the start of the step, every entity owns an RNG
// stream forked once at spawn keyed by its id (core::Rng::fork_stream),
// and all shared side effects (event-bus publishes, planner calls, pile
// mutations) are buffered per machine and drained in ascending slot
// (= id) order. Drone orbits are decided in that phase too, from the
// anchor's start-of-step pose, one step behind.
//
// The worksite owns one route planner (DESIGN.md §22); add_forwarder
// rejects a body wider than its grid's clearance.
//
// The Machine and Human entities are the one pose store (DESIGN.md §19):
// separation sampling, perception and ground-truth zone tracking all
// read them directly, and find nearby people through one scan of the
// humans in id order (humans_within, outside the worksite; DESIGN.md §23).
// The registry histogram "worksite.separation_m" is the one separation
// store: min_human_separation() and Metrics read it.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/event_bus.h"
#include "core/rng.h"
#include "core/time.h"
#include "obs/telemetry.h"
#include "sim/human.h"
#include "sim/machine.h"
#include "sim/pathfinding.h"
#include "sim/terrain.h"
#include "sim/weather.h"

namespace agrarsec::sim {

/// A pile of cut logs awaiting transport. Exhausted piles are compacted
/// away, so positions within `piles()` are unstable; `id` is the stable
/// reference (the forwarder task state machine holds ids, never indices).
struct LogPile {
  core::Vec2 position;
  double volume_m3 = 0.0;
  std::uint64_t id = 0;
};

/// The fixed simulation step, in ms.
inline constexpr core::SimDuration kWorksiteStep = 100;

/// Separation samples are streamed into the registry histogram
/// "worksite.separation_m" (25 bins over [0, kSeparationTrackingM]);
/// pairs farther apart than this are not safety-relevant and are not
/// recorded.
inline constexpr double kSeparationTrackingM = 50.0;

struct WorksiteConfig {
  ForestConfig forest;
  core::Vec2 landing_area{30, 30};
  Weather weather = Weather::kClear;
  double harvester_output_m3_per_min = 1.2;
  core::SimDuration load_time = 90 * core::kSecond;
  core::SimDuration unload_time = 60 * core::kSecond;
  /// Windthrow hazards: expected events per simulated hour at weather
  /// factor 1 (scaled by windthrow_weather_factor; storms fell trees,
  /// clear days rarely do). 0 disables the model. Each event blocks a
  /// disc of 12 m in the route planner (exercising the cache
  /// generation-invalidation path) and publishes "worksite/windthrow";
  /// after windthrow_duration the debris is cleared and
  /// "worksite/windthrow-cleared" is published (0 = never).
  double windthrow_rate_per_hour = 0.0;
  core::SimDuration windthrow_duration = 10 * core::kMinute;
  /// Telemetry sink for the worksite's counters, step-phase spans and
  /// flight events. When null the worksite owns a private instance, so
  /// instrumentation is always live; inject a shared one (SecuredWorksite
  /// does) to merge the full stack into a single export. Must outlive the
  /// worksite.
  obs::Telemetry* telemetry = nullptr;
};

/// Forwarder mission state machine.
enum class ForwarderTask : std::uint8_t {
  kIdle = 0,
  kToPile,
  kLoading,
  kToLanding,
  kUnloading,
};

class Worksite {
 public:
  Worksite(WorksiteConfig config, std::uint64_t seed);

  // --- population ---
  /// Throws std::invalid_argument when the body's planning clearance
  /// (body_radius_m + 0.2 m) exceeds the planner's clearance_m: the one
  /// planner's grid is dilated for that width, and a wider machine routed
  /// on it could be sent through gaps it does not fit.
  MachineId add_forwarder(const std::string& name, core::Vec2 position,
                          MachineConfig config = {});
  MachineId add_harvester(const std::string& name, core::Vec2 position);
  MachineId add_drone(const std::string& name, core::Vec2 position,
                      double altitude_m = 40.0);
  HumanId add_worker(const std::string& name, core::Vec2 position,
                     core::Vec2 work_anchor, HumanConfig config = {});

  // --- access ---
  [[nodiscard]] const Terrain& terrain() const { return *terrain_; }
  [[nodiscard]] core::SimClock& clock() { return clock_; }
  [[nodiscard]] const core::SimClock& clock() const { return clock_; }
  [[nodiscard]] core::EventBus& bus() { return bus_; }
  [[nodiscard]] core::Rng& rng() { return rng_; }
  /// The telemetry this worksite instruments into (the injected one, or
  /// the privately owned fallback).
  [[nodiscard]] obs::Telemetry& telemetry() { return *telemetry_; }
  [[nodiscard]] const obs::Telemetry& telemetry() const { return *telemetry_; }
  [[nodiscard]] Weather weather() const { return config_.weather; }
  void set_weather(Weather weather) { config_.weather = weather; }

  [[nodiscard]] std::vector<Machine*> machines();
  [[nodiscard]] std::vector<const Machine*> machines() const;
  /// O(1) id lookup (slot map; machines are never removed).
  [[nodiscard]] Machine* machine(MachineId id);
  [[nodiscard]] const Machine* machine(MachineId id) const;
  [[nodiscard]] std::vector<Human*> humans();
  [[nodiscard]] std::vector<const Human*> humans() const;
  [[nodiscard]] const Human* human(HumanId id) const;
  [[nodiscard]] const std::vector<LogPile>& piles() const { return piles_; }

  /// Humans within `radius` of `center` (exact Euclidean, boundary
  /// inclusive) into `out`, replacing its contents, in ascending id order.
  /// One scan over the humans, which skips a human whose |dx| or |dy|
  /// exceeds `radius` before the distance test (exact: the distance is at
  /// least either); this is the query perception and ground-truth zone
  /// tracking run per frame. `out` is caller scratch, so the query
  /// allocates nothing after warmup.
  void humans_within(core::Vec2 center, double radius,
                     std::vector<const Human*>& out) const;

  /// Forwarder mission status (only meaningful for forwarders).
  [[nodiscard]] ForwarderTask task(MachineId id) const;

  /// Drone orbit: circles `center` at `radius`; recomputed each step, in
  /// the decide phase, from the anchor's start-of-step pose, so a moving
  /// anchor (the forwarder) is followed one step behind.
  void set_drone_orbit(MachineId drone, MachineId anchor, double radius);

  /// Obstacle-aware route between two points (cached JPS over the terrain
  /// grid); falls back to the straight line when planning fails.
  [[nodiscard]] std::deque<core::Vec2> plan_route(core::Vec2 from, core::Vec2 to) const;

  /// Routes `id` to `goal`, lazily: when the machine's current route was
  /// planned for a goal within its replan threshold and the remaining legs
  /// are still clear, the route is retargeted instead of re-planned.
  /// No-op for unknown ids.
  void route_machine(MachineId id, core::Vec2 goal);

  /// The worksite's one route planner, shared by every machine.
  [[nodiscard]] const PathPlanner& planner() const { return *planner_; }
  /// Mutable planner, e.g. for tests poking
  /// PathPlanner::set_region_blocked directly.
  [[nodiscard]] PathPlanner& planner() { return *planner_; }

  /// Declares/clears a no-go disc in the planner, invalidating affected
  /// cached routes via its generation counter. This is the hook dynamic
  /// hazards (windthrow, breakdowns, attacker-declared zones) drive.
  void block_region(core::Vec2 center, double radius, bool blocked);

  /// Advances one fixed step: harvester produces, piles spawn, forwarders
  /// run their task state machines, humans walk, drones orbit.
  void step();

  // --- outcome metrics ---
  /// One-stop snapshot of the worksite's outcome and hot-path counters,
  /// including the planner's route-cache/JPS statistics.
  struct Metrics {
    double delivered_m3 = 0.0;
    std::uint64_t completed_cycles = 0;
    double min_human_separation = 1e9;
    std::uint64_t separation_samples = 0;
    std::uint64_t route_reuses = 0;  ///< lazy re-plans avoided, fleet-wide
    std::uint64_t windthrow_events = 0;  ///< hazards spawned by the weather model
    PlannerStats planner;            ///< cache hits/misses/invalidations, JPS
  };
  [[nodiscard]] Metrics metrics() const;

  // Registry-backed views: the counters live in telemetry()'s registry
  // ("worksite.delivered_m3" etc.); these accessors are thin adapters.
  [[nodiscard]] double delivered_m3() const { return g_delivered_->value(); }
  [[nodiscard]] std::uint64_t completed_cycles() const { return c_cycles_->value(); }
  /// Minimum human–forwarder distance seen while the forwarder moved
  /// faster than 0.3 m/s (the safety-relevant exposure metric). Tracked
  /// within kSeparationTrackingM; 1e9 when no such pair was ever seen.
  [[nodiscard]] double min_human_separation() const {
    return h_separation_->count() > 0 ? h_separation_->min() : 1e9;
  }

 private:
  struct ForwarderState {
    ForwarderTask task = ForwarderTask::kIdle;
    std::optional<std::uint64_t> pile_id;  ///< stable id, survives compaction
    core::SimDuration action_remaining = 0;
  };
  struct DroneOrbit {
    MachineId anchor;
    double radius = 25.0;
    double phase = 0.0;
  };
  /// A windthrow no-go disc awaiting clearance.
  struct ActiveHazard {
    core::Vec2 center;
    double radius = 0.0;
    core::SimTime until = 0;
  };

  /// Per-machine side-effect buffer: decisions read the start-of-step
  /// worksite and must not touch shared state, so anything that publishes,
  /// plans, or mutates piles is recorded here and applied by the drain in
  /// ascending slot order. At most one action per machine per step (the
  /// forwarder FSM takes one branch), plus an optional pile spawn.
  struct MachineEffects {
    enum class Action : std::uint8_t {
      kNone = 0,
      kDispatch,     ///< idle -> to-pile: route + task event
      kRoutePlanned, ///< mid-task re-route through the planner
      kRouteDirect,  ///< short final approach, straight-line route
      kLoadCommit,   ///< load timer expired: take volume, transition
      kCycleCommit,  ///< unload timer expired: credit delivery, event
    };
    Action action = Action::kNone;
    core::Vec2 route_goal{};
    double unloaded_m3 = 0.0;
    std::optional<LogPile> spawn;  ///< harvester production (id assigned in drain)
  };

  // --- step phases (see step() for ordering) ---
  /// Windthrow spawn/expiry against the planner.
  void step_weather_hazards();
  /// Per-machine FSM decisions into effects_[slot].
  void decide_machine(std::size_t slot);
  void decide_harvester(Machine& harvester, MachineEffects& fx);
  void decide_forwarder(Machine& forwarder, ForwarderState& state,
                        MachineEffects& fx);
  void decide_drone(Machine& drone);
  /// Applies effects_ in ascending slot order — pile spawns and takes,
  /// planner routing, event-bus publishes, delivery accounting.
  void drain_machine_effects();
  void commit_load(Machine& forwarder, ForwarderState& state);

  /// Shared tail of the add_* spawners: slot bookkeeping, effect-buffer
  /// growth.
  MachineId register_machine(std::unique_ptr<Machine> machine);
  /// route_machine body shared with the public id-based overload.
  void route_machine(Machine& machine, core::Vec2 goal);
  /// Nearest pile with harvestable volume, by stable pile id: one scan of
  /// piles_, ties broken towards the smaller id.
  std::optional<std::uint64_t> nearest_pile(core::Vec2 from) const;
  /// Current slot of a pile id in piles_, or nullptr when exhausted.
  [[nodiscard]] LogPile* pile_by_id(std::uint64_t pile_id);
  [[nodiscard]] const LogPile* pile_by_id(std::uint64_t pile_id) const;
  /// Swap-and-pop removal of exhausted piles (volume < 0.5): piles_ and
  /// the slot map shrink with the site instead of growing without bound.
  void compact_piles();

  WorksiteConfig config_;
  std::uint64_t seed_ = 0;  ///< fork_stream root for per-entity streams
  core::Rng rng_;
  core::Rng hazard_rng_;  ///< windthrow stream, independent of entities
  core::SimClock clock_;
  core::EventBus bus_;
  std::unique_ptr<Terrain> terrain_;
  std::unique_ptr<PathPlanner> planner_;

  std::vector<std::unique_ptr<Machine>> machines_;
  std::vector<std::unique_ptr<Human>> humans_;
  std::vector<LogPile> piles_;
  std::unordered_map<std::uint64_t, ForwarderState> forwarder_states_;
  std::unordered_map<std::uint64_t, DroneOrbit> drone_orbits_;
  std::unordered_map<std::uint64_t, double> harvester_accum_m3_;

  // Id lookup structures: dense id -> slot arrays for machines and
  // humans (ids are allocated 1, 2, ... and entities are append-only, so
  // a flat vector beats hashing on every hot-path lookup; kNoSlot marks
  // never-allocated ids), and a slot map for piles (pile ids grow without
  // bound while piles compact, so a dense array would leak).
  static constexpr std::size_t kNoSlot = ~std::size_t{0};
  std::vector<std::size_t> machine_slot_by_id_;
  std::vector<std::size_t> human_slot_by_id_;
  std::unordered_map<std::uint64_t, std::size_t> pile_slots_;
  std::uint64_t next_pile_id_ = 1;

  /// Per-machine effect slots, written by decide and applied by the drain.
  std::vector<MachineEffects> effects_;

  IdAllocator<MachineId> machine_ids_;
  IdAllocator<HumanId> human_ids_;

  std::deque<ActiveHazard> hazards_;

  // Telemetry: either the injected instance or the owned fallback; the
  // outcome counters that used to be plain members are registry
  // instruments now (handles resolved once in the constructor, O(1) on
  // the hot path). Flight events are recorded from serial contexts only.
  std::unique_ptr<obs::Telemetry> owned_telemetry_;
  obs::Telemetry* telemetry_ = nullptr;
  obs::Counter* c_steps_ = nullptr;
  obs::Counter* c_route_reuses_ = nullptr;
  obs::Counter* c_windthrow_ = nullptr;
  obs::Counter* c_cycles_ = nullptr;
  obs::Counter* c_sep_queries_ = nullptr;  ///< one per separation radius query
  obs::Gauge* g_delivered_ = nullptr;
  /// Separation distances (fed in slot order by the sampling phase; the
  /// one separation store) and step wall-time ("wall." prefix keeps it out
  /// of the deterministic export).
  obs::Histogram* h_separation_ = nullptr;
  obs::Histogram* h_step_wall_ = nullptr;
  obs::PhaseId ph_step_ = 0;
  obs::PhaseId ph_weather_ = 0;
  obs::PhaseId ph_decide_ = 0;
  obs::PhaseId ph_drain_ = 0;
  obs::PhaseId ph_integrate_ = 0;
  obs::PhaseId ph_separation_ = 0;
};

}  // namespace agrarsec::sim
