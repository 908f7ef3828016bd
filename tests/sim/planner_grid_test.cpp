// Planner blocked-grid parity: the grid PathPlanner builds by walking each
// obstacle once and bounding the slope per tile must equal, byte for byte,
// the per-cell rule it replaced — a 3x3 query over Terrain's 10 m obstacle
// index at every cell centre, then four ground_height samples for the
// slope. That rule is kept here as the reference (DESIGN.md §21).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "sim/pathfinding.h"
#include "sim/terrain.h"
#include "sim/worksite.h"

namespace agrarsec::sim {
namespace {

/// The obstacle index Terrain kept for its removed point query: 10 m
/// cells keyed by floor(v / 10), an obstacle listed in every cell its
/// footprint's bounding box touches, the grid widened to every footprint,
/// and out-of-range cell coordinates clamped to the border.
class ReferenceIndex {
 public:
  explicit ReferenceIndex(const Terrain& terrain) : obstacles_(terrain.obstacles()) {
    const core::Aabb& b = terrain.bounds();
    min_x_ = key(b.min.x);
    min_y_ = key(b.min.y);
    std::int64_t max_x = key(b.max.x);
    std::int64_t max_y = key(b.max.y);
    for (const Obstacle& o : obstacles_) {
      min_x_ = std::min(min_x_, key(o.footprint.center.x - o.footprint.radius));
      min_y_ = std::min(min_y_, key(o.footprint.center.y - o.footprint.radius));
      max_x = std::max(max_x, key(o.footprint.center.x + o.footprint.radius));
      max_y = std::max(max_y, key(o.footprint.center.y + o.footprint.radius));
    }
    width_ = max_x - min_x_ + 1;
    height_ = max_y - min_y_ + 1;
    cells_.resize(static_cast<std::size_t>(width_ * height_));
    for (std::uint32_t i = 0; i < obstacles_.size(); ++i) {
      const core::Circle& f = obstacles_[i].footprint;
      for (std::int64_t cy = key(f.center.y - f.radius); cy <= key(f.center.y + f.radius);
           ++cy) {
        for (std::int64_t cx = key(f.center.x - f.radius);
             cx <= key(f.center.x + f.radius); ++cx) {
          cells_[slot(cx, cy)].push_back(i);
        }
      }
    }
  }

  /// True when the disc of `radius` at `p` overlaps an obstacle footprint
  /// listed in the 3x3 index cells around `p`.
  [[nodiscard]] bool blocked(core::Vec2 p, double radius) const {
    const std::int64_t kx = key(p.x);
    const std::int64_t ky = key(p.y);
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      for (std::int64_t dx = -1; dx <= 1; ++dx) {
        for (const std::uint32_t i : cells_[slot(kx + dx, ky + dy)]) {
          const Obstacle& o = obstacles_[i];
          if (core::distance(o.footprint.center, p) < o.footprint.radius + radius) {
            return true;
          }
        }
      }
    }
    return false;
  }

 private:
  static std::int64_t key(double v) { return static_cast<std::int64_t>(std::floor(v / 10.0)); }
  [[nodiscard]] std::size_t slot(std::int64_t cx, std::int64_t cy) const {
    cx = std::clamp<std::int64_t>(cx - min_x_, 0, width_ - 1);
    cy = std::clamp<std::int64_t>(cy - min_y_, 0, height_ - 1);
    return static_cast<std::size_t>(cy * width_ + cx);
  }

  const std::vector<Obstacle>& obstacles_;
  std::int64_t min_x_ = 0;
  std::int64_t min_y_ = 0;
  std::int64_t width_ = 1;
  std::int64_t height_ = 1;
  std::vector<std::vector<std::uint32_t>> cells_;
};

int grid_width(const Terrain& t, const PlannerConfig& c) {
  return std::max(1, static_cast<int>(std::ceil(t.bounds().width() / c.cell_size_m)));
}
int grid_height(const Terrain& t, const PlannerConfig& c) {
  return std::max(1, static_cast<int>(std::ceil(t.bounds().height() / c.cell_size_m)));
}

core::Vec2 cell_center(const Terrain& t, const PlannerConfig& c, int cx, int cy) {
  return {t.bounds().min.x + (cx + 0.5) * c.cell_size_m,
          t.bounds().min.y + (cy + 0.5) * c.cell_size_m};
}

/// The four-sample central-difference slope test at one cell centre.
bool reference_steep(const Terrain& t, const PlannerConfig& c, core::Vec2 center) {
  const double h = c.cell_size_m * 0.5;
  const double gx = (t.ground_height({center.x + h, center.y}) -
                     t.ground_height({center.x - h, center.y})) /
                    (2.0 * h);
  const double gy = (t.ground_height({center.x, center.y + h}) -
                     t.ground_height({center.x, center.y - h})) /
                    (2.0 * h);
  return std::hypot(gx, gy) > c.max_slope;
}

/// The per-cell construction rule: 1 = blocked, row-major.
std::vector<std::uint8_t> reference_grid(const Terrain& t, const PlannerConfig& c,
                                         std::size_t* slope_only = nullptr) {
  const ReferenceIndex index{t};
  const int w = grid_width(t, c);
  const int h = grid_height(t, c);
  std::vector<std::uint8_t> grid(static_cast<std::size_t>(w) * h, 0);
  for (int cy = 0; cy < h; ++cy) {
    for (int cx = 0; cx < w; ++cx) {
      const core::Vec2 center = cell_center(t, c, cx, cy);
      bool blocked = index.blocked(center, c.clearance_m);
      if (!blocked && c.max_slope > 0.0 && reference_steep(t, c, center)) {
        blocked = true;
        if (slope_only != nullptr) ++*slope_only;
      }
      grid[static_cast<std::size_t>(cy) * w + cx] = blocked ? 1 : 0;
    }
  }
  return grid;
}

/// The planner's grid read back through cell_free: 1 = blocked.
std::vector<std::uint8_t> planner_grid(const PathPlanner& planner, const Terrain& t) {
  const int w = grid_width(t, planner.config());
  const int h = grid_height(t, planner.config());
  std::vector<std::uint8_t> grid(static_cast<std::size_t>(w) * h, 0);
  for (int cy = 0; cy < h; ++cy) {
    for (int cx = 0; cx < w; ++cx) {
      grid[static_cast<std::size_t>(cy) * w + cx] = planner.cell_free(cx, cy) ? 0 : 1;
    }
  }
  return grid;
}

std::size_t mismatches(const std::vector<std::uint8_t>& a,
                       const std::vector<std::uint8_t>& b) {
  if (a.size() != b.size()) return std::max(a.size(), b.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) n += a[i] != b[i] ? 1 : 0;
  return n;
}

Hill steep_hill(core::Vec2 at) { return Hill{at, 8.0, 10.0}; }

/// A generated stand on `bounds`. Hills are drawn here (Terrain keeps its
/// own private) in Terrain::generate's shape; `steep` adds two small-sigma
/// hills centred inside 8x8-cell tiles of a `cell`-sized grid, whose
/// flanks exceed the default max_slope.
Terrain forest(std::uint64_t seed, double stems_per_ha, core::Aabb bounds, double cell,
               bool steep) {
  ForestConfig config;
  config.bounds = bounds;
  config.trees_per_hectare = stems_per_ha;
  config.hill_count = 0;
  core::Rng rng{seed};
  const Terrain stand = Terrain::generate(config, rng);
  std::vector<Hill> hills;
  for (int i = 0; i < 6; ++i) {
    hills.push_back(Hill{{rng.uniform(bounds.min.x, bounds.max.x),
                          rng.uniform(bounds.min.y, bounds.max.y)},
                         rng.uniform(0.5, 8.0), std::max(10.0, rng.normal(60.0, 18.0))});
  }
  if (steep) {
    const double tile = 8.0 * cell;
    const int tiles_x = static_cast<int>(bounds.width() / tile);
    const int tiles_y = static_cast<int>(bounds.height() / tile);
    for (int i = 0; i < 2; ++i) {
      const double tx = static_cast<double>(rng.next_below(tiles_x));
      const double ty = static_cast<double>(rng.next_below(tiles_y));
      hills.push_back(steep_hill({bounds.min.x + (tx + rng.uniform(0.3, 0.7)) * tile,
                                  bounds.min.y + (ty + rng.uniform(0.3, 0.7)) * tile}));
    }
  }
  return Terrain{bounds, stand.obstacles(), std::move(hills)};
}

TEST(PlannerGrid, MatchesPerCellReference) {
  const core::Aabb integral{{0, 0}, {300, 300}};
  const core::Aabb fractional{{0.3, -7.1}, {301.1, 288.4}};
  std::size_t grids = 0;
  std::size_t slope_cells = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const double stems : {120.0, 400.0}) {
      // Odd seeds take the non-integral geometry; seeds 1, 2, 5, 6, ...
      // add the steep hills, so every combination of the two occurs.
      const bool odd = seed % 2 == 1;
      const double cell = odd ? 3.7 : 4.0;
      const Terrain t =
          forest(seed * 1000 + static_cast<std::uint64_t>(stems), stems,
                 odd ? fractional : integral, cell, seed % 4 < 2);
      for (const double clearance : {0.2, 0.6, 2.0, 3.5, 9.5}) {
        PlannerConfig config;
        config.cell_size_m = cell;
        config.clearance_m = clearance;
        const PathPlanner planner{t, config};
        std::size_t slope_only = 0;
        const auto expected = reference_grid(t, config, &slope_only);
        slope_cells += slope_only;
        ASSERT_EQ(mismatches(planner_grid(planner, t), expected), 0u)
            << "seed " << seed << ", " << stems << " stems/ha, clearance " << clearance;
        ++grids;
      }
    }
  }
  EXPECT_EQ(grids, 200u);
  // The steep hills drive the exact slope branch: it must block cells.
  EXPECT_GT(slope_cells, 0u);
}

TEST(PlannerGrid, SteepHillsOnlyMatchReference) {
  // No obstacles: every blocked cell comes from the exact slope test,
  // including a steep hill centred on a tile corner and one near the edge.
  const core::Aabb bounds{{0.3, -7.1}, {240.8, 233.5}};
  const Terrain t{bounds,
                  {},
                  {steep_hill({60.0, 50.0}), steep_hill({118.7, 111.3}),
                   steep_hill({235.0, 10.0}), Hill{{150.0, 150.0}, 6.0, 35.0}}};
  for (const double max_slope : {0.35, 0.2, 0.05, 0.0}) {
    PlannerConfig config;
    config.cell_size_m = 3.7;
    config.max_slope = max_slope;
    const PathPlanner planner{t, config};
    std::size_t slope_only = 0;
    const auto expected = reference_grid(t, config, &slope_only);
    EXPECT_EQ(mismatches(planner_grid(planner, t), expected), 0u) << max_slope;
    if (max_slope > 0.0) {
      EXPECT_GT(slope_only, 0u) << max_slope;
    } else {
      EXPECT_EQ(slope_only, 0u);
    }
  }
}

TEST(PlannerGrid, RegionBlockThenFreeMatchesReference) {
  const double cell = 3.7;
  const Terrain t = forest(77, 400.0, {{0.3, -7.1}, {301.1, 288.4}}, cell, true);
  PlannerConfig config;
  config.cell_size_m = cell;
  PathPlanner planner{t, config};
  const auto base = reference_grid(t, config);
  ASSERT_EQ(mismatches(planner_grid(planner, t), base), 0u);
  const int w = grid_width(t, config);
  const int h = grid_height(t, config);

  // Random discs, some straddling the border, then one centred on a cell
  // only the slope blocks, so freeing must re-derive a steep flank.
  PlannerConfig flat = config;
  flat.max_slope = 0.0;
  const auto obstacles_only = reference_grid(t, flat);
  int steep = 0;
  while (steep < w * h && !(base[steep] == 1 && obstacles_only[steep] == 0)) ++steep;
  ASSERT_LT(steep, w * h);
  const core::Vec2 flank = cell_center(t, config, steep % w, steep / w);

  core::Rng rng{5};
  for (int i = 0; i < 12; ++i) {
    const bool last = i == 11;
    const core::Vec2 center =
        last ? flank : core::Vec2{rng.uniform(-20.0, 320.0), rng.uniform(-25.0, 305.0)};
    const double radius = last ? 12.0 : rng.uniform(2.0, 30.0);
    planner.set_region_blocked(center, radius, true);
    std::vector<std::uint8_t> expected = base;
    for (int cy = 0; cy < h; ++cy) {
      for (int cx = 0; cx < w; ++cx) {
        if (core::distance(cell_center(t, config, cx, cy), center) <= radius) {
          expected[static_cast<std::size_t>(cy) * w + cx] = 1;
        }
      }
    }
    EXPECT_EQ(mismatches(planner_grid(planner, t), expected), 0u) << "block " << i;
    planner.set_region_blocked(center, radius, false);
    EXPECT_EQ(mismatches(planner_grid(planner, t), base), 0u) << "free " << i;
  }
}

TEST(PlannerGrid, ReachBeyondIndexCellMarksEveryCellInReach) {
  // The one place the obstacle walk and the old 3x3 query differ: once
  // the clearance reaches the 10 m index cell, the query missed obstacles
  // more than one index cell away. The walk blocks exactly the cells
  // within radius + clearance.
  Obstacle stone;
  stone.kind = ObstacleKind::kBoulder;
  stone.footprint = {{105.0, 105.0}, 1.0};
  const Terrain t{{{0, 0}, {200, 200}}, {stone}, {}};
  PlannerConfig config;
  config.clearance_m = 20.0;
  const PathPlanner planner{t, config};
  std::size_t in_reach = 0;
  for (int cy = 0; cy < 50; ++cy) {
    for (int cx = 0; cx < 50; ++cx) {
      const bool near = core::distance(stone.footprint.center,
                                       cell_center(t, config, cx, cy)) < 21.0;
      in_reach += near ? 1 : 0;
      EXPECT_EQ(planner.cell_free(cx, cy), !near) << cx << "," << cy;
    }
  }
  EXPECT_GT(in_reach, 0u);
  EXPECT_GT(mismatches(planner_grid(planner, t), reference_grid(t, config)), 0u);

  // A footprint wider than the index cell is not such a case: the index
  // lists it in every cell its footprint touches.
  stone.footprint.radius = 9.0;
  const Terrain wide{{{0, 0}, {200, 200}}, {stone}, {}};
  config.clearance_m = 2.0;
  EXPECT_EQ(mismatches(planner_grid(PathPlanner{wide, config}, wide),
                       reference_grid(wide, config)),
            0u);
}

bool same_route(const std::optional<std::vector<core::Vec2>>& a,
                const std::optional<std::vector<core::Vec2>>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  if (a->size() != b->size()) return false;
  for (std::size_t i = 0; i < a->size(); ++i) {
    if ((*a)[i].x != (*b)[i].x || (*a)[i].y != (*b)[i].y) return false;
  }
  return true;
}

TEST(PlannerGrid, FirstCallOfEveryEntryPointBuildsTheGrid) {
  // The grid is built on first use (DESIGN.md §31). Whichever entry point
  // a fresh planner sees first must answer as a planner that has already
  // planned, and leave the reference grid behind.
  const double cell = 3.7;
  const Terrain t = forest(91, 120.0, {{0.3, -7.1}, {301.1, 288.4}}, cell, true);
  PlannerConfig config;
  config.cell_size_m = cell;
  const auto expected = reference_grid(t, config);
  const int w = grid_width(t, config);

  // Short legs between cell centres one or two cells apart: too short to
  // meet a stem in most cases, so the grid read decides them, and the
  // steep flanks block some.
  core::Rng rng{17};
  std::vector<std::pair<core::Vec2, core::Vec2>> legs;
  for (int i = 0; i < 400; ++i) {
    const int cx = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(w - 4))) + 2;
    const int cy = static_cast<int>(rng.next_below(
                       static_cast<std::uint64_t>(grid_height(t, config) - 4))) +
                   2;
    legs.emplace_back(cell_center(t, config, cx, cy),
                      cell_center(t, config, cx + static_cast<int>(rng.next_below(5)) - 2,
                                  cy + static_cast<int>(rng.next_below(5)) - 2));
  }
  const core::Vec2 from{40.0, 40.0};
  const core::Vec2 to{260.0, 230.0};

  PathPlanner planned{t, config};
  const auto route = planned.plan(from, to);
  ASSERT_TRUE(route.has_value());
  ASSERT_EQ(mismatches(planner_grid(planned, t), expected), 0u);
  std::size_t clear = 0;
  std::size_t grid_blocked = 0;
  for (const auto& [a, b] : legs) {
    if (planned.segment_clear(a, b)) {
      ++clear;
    } else if (!t.segment_blocked(a, b, config.clearance_m)) {
      ++grid_blocked;
    }
  }
  ASSERT_GT(clear, 0u);
  ASSERT_GT(grid_blocked, 0u);

  {
    const PathPlanner fresh{t, config};
    EXPECT_EQ(mismatches(planner_grid(fresh, t), expected), 0u) << "cell_free first";
  }
  {
    const PathPlanner fresh{t, config};
    for (const auto& [a, b] : legs) {
      EXPECT_EQ(fresh.segment_clear(a, b), planned.segment_clear(a, b));
    }
    EXPECT_EQ(mismatches(planner_grid(fresh, t), expected), 0u) << "segment_clear first";
  }
  {
    const PathPlanner fresh{t, config};
    EXPECT_TRUE(same_route(fresh.plan(from, to), route));
    EXPECT_EQ(mismatches(planner_grid(fresh, t), expected), 0u) << "plan first";
  }
  {
    // Freeing re-derives the disc from the terrain, so it changes no cell
    // of a built grid and bumps no generation.
    PathPlanner fresh{t, config};
    fresh.set_region_blocked({150.0, 140.0}, 40.0, false);
    EXPECT_EQ(fresh.generation(), 0u);
    EXPECT_EQ(mismatches(planner_grid(fresh, t), expected), 0u) << "free first";
  }
  {
    // A windthrow disc before the first plan lands on the built grid.
    PathPlanner fresh{t, config};
    const core::Vec2 center{150.0, 140.0};
    fresh.set_region_blocked(center, 20.0, true);
    std::vector<std::uint8_t> blocked = expected;
    for (std::size_t i = 0; i < blocked.size(); ++i) {
      const int cx = static_cast<int>(i % static_cast<std::size_t>(w));
      const int cy = static_cast<int>(i / static_cast<std::size_t>(w));
      if (core::distance(cell_center(t, config, cx, cy), center) <= 20.0) blocked[i] = 1;
    }
    EXPECT_EQ(fresh.generation(), 1u);
    EXPECT_EQ(mismatches(planner_grid(fresh, t), blocked), 0u) << "block first";
  }
}

TEST(PlannerGrid, FirstBuildRunsUnderItsOwnPhase) {
  // A worksite's one-off grid build is timed under "planner.grid" rather
  // than inside whichever step first plans (DESIGN.md §32). Windthrow
  // marks and frees discs of the built grid, which is no second build.
  WorksiteConfig config;
  config.forest.bounds = {{0, 0}, {400, 400}};
  config.forest.trees_per_hectare = 200;
  config.landing_area = {40, 40};
  config.harvester_output_m3_per_min = 30.0;
  config.weather = Weather::kSnow;
  config.windthrow_rate_per_hour = 2000.0;
  config.windthrow_duration = 5 * core::kSecond;
  Worksite site{config, 5};
  site.add_harvester("h1", {200, 200});
  site.add_forwarder("f1", {60, 60});
  obs::Tracer& tracer = site.telemetry().tracer();
  const obs::PhaseId grid = tracer.phase("planner.grid");
  EXPECT_EQ(tracer.stats(grid).calls, 0u);

  for (int i = 0; i < 1200; ++i) site.step();
  EXPECT_GT(site.metrics().planner.plans, 0u);
  EXPECT_GT(site.metrics().windthrow_events, 1u);
  EXPECT_EQ(tracer.stats(grid).calls, 1u);
}

TEST(PlannerGrid, ReferenceBlockedDetectsOverlap) {
  Obstacle stone;
  stone.kind = ObstacleKind::kBoulder;
  stone.footprint = {{50, 50}, 2.0};
  stone.height_m = 3.0;
  const Terrain t{{{0, 0}, {200, 200}}, {stone}, {}};
  const ReferenceIndex index{t};
  EXPECT_TRUE(index.blocked({51, 50}, 1.0));
  EXPECT_FALSE(index.blocked({60, 50}, 1.0));
  // Radius matters.
  EXPECT_TRUE(index.blocked({55, 50}, 4.0));
}

TEST(PlannerGrid, GradientBoundCoversSampledSlopes) {
  // The bound over a rectangle is at least every central difference taken
  // inside it, and it is tight to within the flank's shape: it peaks on
  // the ring d = sigma.
  const Hill hill = steep_hill({100.0, 100.0});
  const Terrain t{{{0, 0}, {200, 200}}, {}, {hill}};
  const double peak = 8.0 / 10.0 * std::exp(-0.5);
  // A rectangle containing the ring reaches the peak exactly.
  EXPECT_NEAR(t.gradient_bound({{95.0, 95.0}, {115.0, 105.0}}), peak, 1e-12);
  // A rectangle inside the ring peaks at its farthest corner.
  const double far = std::hypot(3.0, 3.0);
  EXPECT_NEAR(t.gradient_bound({{97.0, 97.0}, {103.0, 103.0}}),
              0.08 * far * std::exp(-far * far / 200.0), 1e-12);
  // Outside the ring, at its nearest point.
  EXPECT_NEAR(t.gradient_bound({{130.0, 90.0}, {140.0, 110.0}}),
              0.08 * 30.0 * std::exp(-900.0 / 200.0), 1e-12);
  core::Rng rng{9};
  for (int i = 0; i < 2000; ++i) {
    const core::Vec2 lo{rng.uniform(60.0, 140.0), rng.uniform(60.0, 140.0)};
    const core::Aabb rect{lo, lo + core::Vec2{rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0)}};
    const double h = 0.25;
    const core::Vec2 p{rng.uniform(rect.min.x + h, rect.max.x - h),
                       rng.uniform(rect.min.y + h, rect.max.y - h)};
    const double gx =
        (t.ground_height({p.x + h, p.y}) - t.ground_height({p.x - h, p.y})) / (2 * h);
    const double gy =
        (t.ground_height({p.x, p.y + h}) - t.ground_height({p.x, p.y - h})) / (2 * h);
    const double bound = t.gradient_bound(rect);
    EXPECT_LE(std::abs(gx), bound + 1e-12);
    EXPECT_LE(std::abs(gy), bound + 1e-12);
  }
  // A degenerate hill yields a non-finite bound (the planner then runs
  // the exact test).
  const Terrain flat_spike{{{0, 0}, {200, 200}}, {}, {Hill{{50, 50}, 3.0, 0.0}}};
  EXPECT_FALSE(std::isfinite(flat_spike.gradient_bound({{0, 0}, {10, 10}})));
}

}  // namespace
}  // namespace agrarsec::sim
