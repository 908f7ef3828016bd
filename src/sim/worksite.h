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
// (= id) order.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/event_bus.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/time.h"
#include "obs/telemetry.h"
#include "sim/human.h"
#include "sim/machine.h"
#include "sim/pathfinding.h"
#include "sim/spatial_index.h"
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

/// Structure-of-arrays mirror of the machines' hot read state (DESIGN.md
/// §14). The entities in machines_ stay authoritative — external holders
/// of Machine& (SafetyMonitor) rely on pointer stability — but the phases
/// that only *read* poses at fleet scale (separation sampling, sensing,
/// zone tracking) stream these contiguous arrays instead of chasing one
/// heap allocation per entity. Values are bit-copies of the entity state,
/// refreshed every step after the last pose mutation, so consumers get
/// results identical to reading the entities. Indexed by machine slot.
struct MachineHotState {
  std::vector<double> x, y;
  std::vector<double> heading;
  std::vector<double> speed;
  std::vector<std::uint64_t> id;     ///< written at spawn, immutable
  std::vector<MachineKind> kind;     ///< written at spawn, immutable
  [[nodiscard]] std::size_t size() const { return x.size(); }
  [[nodiscard]] core::Vec2 position(std::size_t slot) const {
    return {x[slot], y[slot]};
  }
};

/// Structure-of-arrays mirror of the humans' hot read state, indexed by
/// human slot (= id - 1; humans are append-only).
struct HumanHotState {
  std::vector<double> x, y;
  std::vector<double> height;        ///< written at spawn, immutable
  std::vector<std::uint64_t> id;     ///< written at spawn, immutable
  [[nodiscard]] std::size_t size() const { return x.size(); }
  [[nodiscard]] core::Vec2 position(std::size_t slot) const {
    return {x[slot], y[slot]};
  }
};

struct WorksiteConfig {
  ForestConfig forest;
  core::Vec2 landing_area{30, 30};
  double landing_radius = 15.0;
  core::SimDuration step = 100;          ///< ms
  Weather weather = Weather::kClear;
  double harvester_output_m3_per_min = 1.2;
  double pile_capacity_m3 = 7.0;
  core::SimDuration load_time = 90 * core::kSecond;
  core::SimDuration unload_time = 60 * core::kSecond;
  /// Separation statistics are streamed into a histogram covering
  /// [0, separation_tracking_m]; pairs farther apart than this are not
  /// safety-relevant and are not recorded (keeps the hot loop local).
  double separation_tracking_m = 50.0;
  /// Histogram resolution for close_encounters() queries (metres).
  double separation_bin_m = 0.1;
  /// Also retain every separation sample in an exact core::SampleSet.
  /// close_encounters() then answers *any* threshold exactly instead of
  /// rounding up to the next histogram bin edge — audit-query precision
  /// at the cost of unbounded sample retention; leave off in long runs.
  bool exact_separation_samples = false;
  /// Windthrow hazards: expected events per simulated hour at weather
  /// factor 1 (scaled by windthrow_weather_factor; storms fell trees,
  /// clear days rarely do). 0 disables the model. Each event blocks a
  /// disc of windthrow_radius_m in every route planner (exercising the
  /// cache generation-invalidation path) and publishes
  /// "worksite/windthrow"; after windthrow_duration the debris is
  /// cleared and "worksite/windthrow-cleared" is published (0 = never).
  double windthrow_rate_per_hour = 0.0;
  double windthrow_radius_m = 12.0;
  core::SimDuration windthrow_duration = 10 * core::kMinute;
  /// Drone orbit targets are normally computed in the decide phase from
  /// the anchor's start-of-step pose — a deliberate one-step lag (see
  /// decide_drone). Setting this runs drones in a follower phase after
  /// the integrate phase instead, so the orbit target tracks the anchor's
  /// *current* (post-step) pose. Default off: the lag is within orbit
  /// tolerance and the default trajectory is frozen by the golden exports.
  bool drone_follow_post_integrate = false;
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
  /// inclusive), in ascending id order — identical set and order to a
  /// brute-force scan over humans(). Backed by the uniform-grid index;
  /// this is the query perception and separation tracking run per step.
  [[nodiscard]] std::vector<const Human*> humans_within(core::Vec2 center,
                                                        double radius) const;

  /// Allocation-free variant of humans_within for the hot read paths:
  /// fills `out` with human *slots* (ascending, same set/order) for use
  /// against human_hot(). Serial contexts only (shares the worksite's
  /// query scratch, like humans_within).
  void humans_within_slots(core::Vec2 center, double radius,
                           std::vector<std::uint32_t>& out) const;

  /// SoA mirrors of the hot per-entity read state, valid from spawn and
  /// refreshed every step() after the last pose mutation (so between
  /// steps — where sensing and monitoring run — they match the entities
  /// bit-for-bit).
  [[nodiscard]] const MachineHotState& machine_hot() const { return machine_hot_; }
  [[nodiscard]] const HumanHotState& human_hot() const { return human_hot_; }

  /// Forwarder mission status (only meaningful for forwarders).
  [[nodiscard]] ForwarderTask task(MachineId id) const;

  /// Drone orbit: circles `center` at `radius`; recomputed each step so a
  /// moving anchor (the forwarder) is followed.
  void set_drone_orbit(MachineId drone, MachineId anchor, double radius);

  /// Obstacle-aware route between two points (cached JPS over the terrain
  /// grid at the default clearance); falls back to the straight line when
  /// planning fails.
  [[nodiscard]] std::deque<core::Vec2> plan_route(core::Vec2 from, core::Vec2 to) const;

  /// Routes `id` to `goal`, lazily: when the machine's current route was
  /// planned for a goal within its replan threshold and the remaining legs
  /// are still clear, the route is retargeted instead of re-planned.
  /// Planning uses the planner matching the machine's clearance (mixed
  /// drone/forwarder fleets never share a route cache). No-op for unknown
  /// ids.
  void route_machine(MachineId id, core::Vec2 goal);

  [[nodiscard]] const PathPlanner& planner() const { return *planner_; }
  /// Mutable default-clearance planner, e.g. for tests poking
  /// PathPlanner::set_region_blocked directly. Fleet-wide no-go regions
  /// should go through block_region(), which hits every clearance's
  /// planner instance.
  [[nodiscard]] PathPlanner& planner() { return *planner_; }

  /// Planner instance whose blocked grid is dilated for `clearance_m`
  /// (quantised to 0.1 m; lazily constructed). Machines with different
  /// clearances (drone vs forwarder) get separate instances and therefore
  /// separate route caches — a shared cache would serve a forwarder a
  /// drone-width route (ROADMAP item from PR 2).
  [[nodiscard]] PathPlanner& planner_for(double clearance_m);
  /// Planning clearance used for `machine` (body radius + margin).
  [[nodiscard]] static double machine_clearance(const Machine& machine);

  /// Declares/clears a no-go disc in *every* planner instance (all
  /// clearances), invalidating affected cached routes via the planners'
  /// generation counters. This is the hook dynamic hazards (windthrow,
  /// breakdowns, attacker-declared zones) drive.
  void block_region(core::Vec2 center, double radius, bool blocked);

  /// Advances one fixed step: harvester produces, piles spawn, forwarders
  /// run their task state machines, humans walk, drones orbit.
  void step();

  // --- outcome metrics ---
  /// One-stop snapshot of the worksite's outcome and hot-path counters,
  /// including the planners' route-cache/JPS statistics (summed over all
  /// clearance instances).
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
  /// within separation_tracking_m; 1e9 when no such pair was ever seen.
  [[nodiscard]] double min_human_separation() const { return min_separation_; }
  /// Count of recorded separation samples below `threshold_m`. Answered
  /// from the streaming histogram at separation_bin_m resolution
  /// (thresholds are rounded up to the next bin edge), O(bins) instead of
  /// a scan over every sample ever recorded — unless
  /// config.exact_separation_samples is set, in which case the retained
  /// sample set is scanned and the count is exact at any threshold.
  [[nodiscard]] std::uint64_t close_encounters(double threshold_m) const;
  /// Streaming moments (mean/stddev/min/max) over all separation samples.
  [[nodiscard]] const core::RunningStats& separation_stats() const {
    return separation_stats_;
  }
  [[nodiscard]] const core::Histogram& separation_histogram() const {
    return separation_hist_;
  }
  /// Retained samples (nullptr unless config.exact_separation_samples).
  [[nodiscard]] const core::SampleSet* separation_samples() const {
    return separation_exact_ ? &*separation_exact_ : nullptr;
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
  /// Windthrow spawn/expiry against every planner.
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
  /// Post-integrate follower phase (only when
  /// config.drone_follow_post_integrate): decides + steps every drone in
  /// ascending slot order against the anchors' post-step poses. A drone
  /// anchored on an earlier-slot drone therefore reads that drone's
  /// already-stepped pose.
  void follow_drones();
  /// Copies the entities' post-step poses into the SoA mirrors
  /// (contiguous writes, runs inside the index phase).
  void refresh_hot_state();

  /// Shared tail of the add_* spawners: slot bookkeeping, SoA append,
  /// drone work-list, effect-buffer growth.
  MachineId register_machine(std::unique_ptr<Machine> machine);
  /// route_machine body shared with the public id-based overload.
  void route_machine(Machine& machine, core::Vec2 goal);
  /// Nearest pile with harvestable volume, by stable pile id. Exact
  /// (expanding-ring search over the pile grid; only live piles indexed).
  std::optional<std::uint64_t> nearest_pile(core::Vec2 from) const;
  /// Current slot of a pile id in piles_, or nullptr when exhausted.
  [[nodiscard]] LogPile* pile_by_id(std::uint64_t pile_id);
  [[nodiscard]] const LogPile* pile_by_id(std::uint64_t pile_id) const;
  /// Swap-and-pop removal of exhausted piles (volume < 0.5): the grid and
  /// slot map shrink with the site instead of growing without bound.
  void compact_piles();

  WorksiteConfig config_;
  std::uint64_t seed_ = 0;  ///< fork_stream root for per-entity streams
  core::Rng rng_;
  core::Rng hazard_rng_;  ///< windthrow stream, independent of entities
  core::SimClock clock_;
  core::EventBus bus_;
  std::unique_ptr<Terrain> terrain_;
  /// Route planners by quantised clearance (key = round(clearance * 10));
  /// planner_ points at the default-clearance instance. std::map so
  /// iteration (stat aggregation, block_region) is in a fixed order.
  std::map<long, std::unique_ptr<PathPlanner>> planners_;
  PathPlanner* planner_ = nullptr;

  std::vector<std::unique_ptr<Machine>> machines_;
  std::vector<std::unique_ptr<Human>> humans_;
  std::vector<LogPile> piles_;
  std::unordered_map<std::uint64_t, ForwarderState> forwarder_states_;
  std::unordered_map<std::uint64_t, DroneOrbit> drone_orbits_;
  std::unordered_map<std::uint64_t, double> harvester_accum_m3_;

  // Hot-loop lookup structures: dense id -> slot arrays for machines and
  // humans (ids are allocated 1, 2, ... and entities are append-only, so
  // a flat vector beats hashing on every hot-path lookup; kNoSlot marks
  // never-allocated ids), a slot map for piles (pile ids grow without
  // bound while piles compact, so a dense array would leak), and
  // uniform-grid indexes for the per-step range queries.
  static constexpr std::size_t kNoSlot = ~std::size_t{0};
  std::vector<std::size_t> machine_slot_by_id_;
  std::vector<std::size_t> human_slot_by_id_;
  std::unordered_map<std::uint64_t, std::size_t> pile_slots_;
  /// Machine slots holding drones, ascending (the follower phase's work
  /// list).
  std::vector<std::size_t> drone_slots_;
  SpatialIndex human_index_;
  SpatialIndex pile_index_;
  std::uint64_t next_pile_id_ = 1;
  mutable std::vector<std::uint64_t> query_buffer_;

  /// Per-machine effect slots, written by decide and applied by the drain.
  std::vector<MachineEffects> effects_;

  // SoA mirrors of the hot read state (see MachineHotState); refreshed by
  // refresh_hot_state() once per step.
  MachineHotState machine_hot_;
  HumanHotState human_hot_;

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
  /// Separation distances (fed in slot order by the sampling phase) and
  /// step wall-time ("wall." prefix keeps it out of the deterministic
  /// export).
  obs::Histogram* h_separation_ = nullptr;
  obs::Histogram* h_step_wall_ = nullptr;
  obs::PhaseId ph_step_ = 0;
  obs::PhaseId ph_weather_ = 0;
  obs::PhaseId ph_decide_ = 0;
  obs::PhaseId ph_drain_ = 0;
  obs::PhaseId ph_integrate_ = 0;
  obs::PhaseId ph_index_ = 0;
  obs::PhaseId ph_separation_ = 0;
  obs::PhaseId ph_follow_ = 0;

  double min_separation_ = 1e9;
  core::RunningStats separation_stats_;
  core::Histogram separation_hist_;
  std::optional<core::SampleSet> separation_exact_;
};

}  // namespace agrarsec::sim
