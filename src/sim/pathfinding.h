// Grid path planning over the terrain's obstacle field, with machine
// clearance and route decimation. Forwarders plan collision-free routes
// between piles and the landing; the mission-command attack surface
// ("forged-mission" in the threat catalogue) goes exactly through these
// planned routes.
//
// Hot-path design (PR 2): the planner is the worksite profile leader, so
// three layers keep repeated queries cheap while staying deterministic:
//
//  1. Route cache keyed on (start-cell, goal-cell). Plans are functions of
//     the snapped cells only (smoothing is anchored at cell centers, never
//     at the caller's exact pose), so a cached route is bit-identical to a
//     recomputed one — the cache can be disabled via PlannerConfig for
//     parity testing without changing any result.
//  2. Generation-based invalidation: mutating the blocked grid through
//     set_region_blocked() bumps a generation counter; cached entries
//     carry the generation they were planned under and are lazily evicted
//     on the first stale lookup.
//  3. Jump-point search (JPS) replaces vanilla A* expansion. On the
//     uniform-cost grid with corner cutting forbidden, JPS expands only
//     jump points (turning decisions), typically 10-50x fewer open-list
//     pops than A* for the same optimal octile-metric path.
//
// Grid build (DESIGN.md §21): every session builds one blocked grid (its
// worksite owns one planner, DESIGN.md §22), so the build walks each
// obstacle once, marking the cells whose centres lie within radius +
// clearance, instead of querying the obstacle index at every cell. The slope test runs per 8x8-cell tile
// only where Terrain::gradient_bound cannot rule it out; the cells it does
// test use the per-cell four-sample central differences. For clearances
// below Terrain's 10 m index cell the grid equals, cell for cell, the one
// the old per-cell rule built (tests/sim/planner_grid_test.cpp keeps that
// rule as its reference); beyond it the old 3x3 query missed obstacles.
// The grid is built on first use, not in the constructor (DESIGN.md §31):
// every public entry point that reads or writes it builds it first, so a
// session's grid is built by the step that first plans, on the thread
// that steps the session, inside the tracer phase "planner.grid" when
// telemetry is attached.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/geometry.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "sim/terrain.h"

namespace agrarsec::sim {

struct PlannerConfig {
  double cell_size_m = 4.0;     ///< planning resolution
  double clearance_m = 2.0;     ///< machine body radius + margin
  double max_slope = 0.35;      ///< impassable ground gradient (rise/run)
  std::size_t max_expansions = 200000;  ///< search budget (open-list pops)
  bool cache_enabled = true;    ///< route cache; off recomputes every plan
};

/// Planner observability counters, surfaced through Worksite::Metrics.
struct PlannerStats {
  std::uint64_t plans = 0;           ///< plan() calls
  std::uint64_t cache_hits = 0;      ///< served from cache, current generation
  std::uint64_t cache_misses = 0;    ///< searched (includes cache-disabled plans)
  std::uint64_t invalidations = 0;   ///< stale-generation entries evicted
  std::uint64_t jps_expansions = 0;  ///< jump points popped from the open list
};

class PathPlanner {
 public:
  PathPlanner(const Terrain& terrain, PlannerConfig config = {});

  /// Plans from `start` to `goal`. Start/goal are clamped into bounds and
  /// snapped off blocked cells to the nearest free cell when necessary.
  /// Returns a decimated waypoint list (first element past the start cell,
  /// last == goal region center), or nullopt when unreachable within the
  /// search budget. The route depends only on the snapped start/goal cells
  /// and the blocked-grid generation, which is what makes it cacheable —
  /// except that when the pose->first-waypoint leg is not segment_clear
  /// (e.g. the pose was snapped off a blocked cell), the start-cell center
  /// is prepended so the first driven leg follows the verified polyline.
  [[nodiscard]] std::optional<std::vector<core::Vec2>> plan(core::Vec2 start,
                                                            core::Vec2 goal) const;

  /// True when the straight segment keeps clearance from all obstacles
  /// and stays on passable slopes (used for route smoothing).
  [[nodiscard]] bool segment_clear(core::Vec2 a, core::Vec2 b) const;

  /// Whether a planning cell is traversable (builds the grid first, so a
  /// fresh planner reads the same cells as one that has planned).
  [[nodiscard]] bool cell_free(int cx, int cy) const;

  /// Marks (blocked=true) or frees every planning cell whose center lies
  /// within `radius` of `center` — the mutation hook for dynamic hazards
  /// (windthrow, machine breakdowns, declared no-go zones). Bumps the grid
  /// generation when any cell actually changes, lazily invalidating every
  /// cached route. Freeing cells only frees what the disc covers; cells
  /// blocked by the underlying terrain are re-derived, not overridden.
  void set_region_blocked(core::Vec2 center, double radius, bool blocked);

  /// Blocked-grid generation; bumped by set_region_blocked.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  [[nodiscard]] const PlannerStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }
  [[nodiscard]] const PlannerConfig& config() const { return config_; }

  /// Mirrors every PlannerStats increment into registry counters
  /// ("planner.plans", "planner.cache_hits", ...), so a shared telemetry
  /// export always carries live planner numbers (summed over every
  /// instance wired to the same registry), and times the first full grid
  /// build under the tracer phase "planner.grid". nullptr detaches. The
  /// telemetry must outlive the planner; plan() is called from serial
  /// contexts only.
  void set_telemetry(obs::Telemetry* telemetry);

 private:
  struct CacheEntry {
    std::uint64_t generation = 0;
    bool reachable = false;
    std::vector<core::Vec2> route;
  };

  /// Derives the whole blocked grid unless a call already has.
  void ensure_grid() const;
  /// cell_free without the build check: for reads made after an entry
  /// point has built the grid (JPS reads every cell it crosses).
  [[nodiscard]] bool free_at(int cx, int cy) const;
  [[nodiscard]] core::Vec2 cell_center(int cx, int cy) const;
  [[nodiscard]] std::pair<int, int> cell_of(core::Vec2 p) const;
  [[nodiscard]] std::optional<std::pair<int, int>> nearest_free(int cx, int cy) const;
  [[nodiscard]] std::vector<core::Vec2> smooth(const std::vector<core::Vec2>& raw) const;
  /// Octile-metric shortest cell path via jump-point search, expanded back
  /// to the full per-cell polyline, then smoothed. Pure function of the
  /// cells and the blocked grid. `budget_exhausted` is set when a nullopt
  /// return means the expansion budget ran out rather than true
  /// unreachability — such failures must not be cached.
  [[nodiscard]] std::optional<std::vector<core::Vec2>> search(int start_cx, int start_cy,
                                                              int goal_cx, int goal_cy,
                                                              bool& budget_exhausted) const;
  /// Jump from (x,y) (already stepped once from its predecessor) along
  /// direction (dx,dy). Returns the next jump point or nullopt when the
  /// ray dead-ends. Corner cutting is forbidden: diagonal travel requires
  /// both orthogonally adjacent cells free.
  [[nodiscard]] std::optional<std::pair<int, int>> jump(int x, int y, int dx, int dy,
                                                        int goal_x, int goal_y) const;
  /// Terrain-derived blocked flags (obstacle clearance, then slope) of
  /// the cell window [x0, x1] x [y0, y1], row-major over the window: the
  /// build rule, also used when set_region_blocked frees a region.
  [[nodiscard]] std::vector<std::uint8_t> derive_blocked(int x0, int y0, int x1,
                                                         int y1) const;
  /// The per-cell slope test: central differences of ground_height across
  /// one cell against max_slope.
  [[nodiscard]] bool too_steep(int cx, int cy) const;

  const Terrain& terrain_;
  PlannerConfig config_;
  int width_ = 0;
  int height_ = 0;
  std::uint64_t generation_ = 0;

  // Mutable: plan() and cell_free() are logically const. The occupancy
  // grid is empty until ensure_grid() derives it; the route cache and
  // counters are bookkeeping (same convention as Terrain's query scratch).
  mutable std::vector<std::uint8_t> blocked_;
  // Route cache: (start_idx << 32 | goal_idx) -> generation-stamped route.
  mutable std::unordered_map<std::uint64_t, CacheEntry> cache_;
  mutable PlannerStats stats_;

  // Optional registry mirrors and grid-build phase (see set_telemetry);
  // null when detached.
  obs::Tracer* tracer_ = nullptr;
  obs::PhaseId ph_grid_ = 0;
  obs::Counter* c_plans_ = nullptr;
  obs::Counter* c_cache_hits_ = nullptr;
  obs::Counter* c_cache_misses_ = nullptr;
  obs::Counter* c_invalidations_ = nullptr;
  obs::Counter* c_jps_expansions_ = nullptr;
};

}  // namespace agrarsec::sim
