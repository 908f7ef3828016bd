#include <gtest/gtest.h>

#include <algorithm>

#include "sim/pathfinding.h"
#include "sim/worksite.h"

namespace agrarsec::sim {
namespace {

Terrain empty_terrain() {
  return Terrain{core::Aabb{{0, 0}, {200, 200}}, {}, {}};
}

Obstacle boulder(core::Vec2 at, double radius) {
  Obstacle o;
  o.kind = ObstacleKind::kBoulder;
  o.footprint = {at, radius};
  o.height_m = 2.0;
  return o;
}

/// True when the disc of `radius` at `p` overlaps an obstacle footprint.
bool overlaps_obstacle(const Terrain& t, core::Vec2 p, double radius) {
  return std::any_of(t.obstacles().begin(), t.obstacles().end(), [&](const Obstacle& o) {
    return core::distance(o.footprint.center, p) < o.footprint.radius + radius;
  });
}

TEST(PathPlanner, StraightLineWhenClear) {
  const Terrain t = empty_terrain();
  const PathPlanner planner{t};
  const auto path = planner.plan({10, 10}, {150, 150});
  ASSERT_TRUE(path.has_value());
  // Smoothing collapses the clear route to a single hop.
  EXPECT_LE(path->size(), 2u);
  EXPECT_LT(core::distance(path->back(), {150, 150}), 5.0);
}

TEST(PathPlanner, RoutesAroundWall) {
  // A wall of boulders with a gap at the south end.
  std::vector<Obstacle> obstacles;
  for (double y = 40; y <= 200; y += 6) obstacles.push_back(boulder({100, y}, 3.5));
  const Terrain t{core::Aabb{{0, 0}, {200, 200}}, std::move(obstacles), {}};
  const PathPlanner planner{t};
  const auto path = planner.plan({20, 100}, {180, 100});
  ASSERT_TRUE(path.has_value());

  // Walk the route: every leg keeps clearance.
  core::Vec2 prev{20, 100};
  double length = 0;
  for (const core::Vec2 wp : *path) {
    EXPECT_TRUE(planner.segment_clear(prev, wp))
        << "(" << prev.x << "," << prev.y << ")->(" << wp.x << "," << wp.y << ")";
    length += core::distance(prev, wp);
    prev = wp;
  }
  EXPECT_LT(core::distance(prev, {180, 100}), 6.0);
  // Detour via the gap (~y<40) is clearly longer than the straight 160 m.
  EXPECT_GT(length, 180.0);
}

TEST(PathPlanner, UnreachableGoalReturnsNullopt) {
  // Fully enclosed goal: ring of touching boulders.
  std::vector<Obstacle> obstacles;
  for (double angle = 0; angle < 6.3; angle += 0.15) {
    obstacles.push_back(
        boulder({100 + 20 * std::cos(angle), 100 + 20 * std::sin(angle)}, 4.0));
  }
  const Terrain t{core::Aabb{{0, 0}, {200, 200}}, std::move(obstacles), {}};
  PlannerConfig config;
  config.clearance_m = 2.0;
  const PathPlanner planner{t, config};
  // Goal deep inside the ring (nearest-free snap cannot escape: the free
  // cells inside the ring are disconnected from outside).
  const auto path = planner.plan({10, 10}, {100, 100});
  EXPECT_FALSE(path.has_value());
}

TEST(PathPlanner, SteepHillIsAvoided) {
  // A single very steep hill in the middle; max_slope forbids crossing.
  Terrain t{core::Aabb{{0, 0}, {200, 200}}, {},
            {Hill{{100, 100}, 40.0, 18.0}}};
  PlannerConfig config;
  config.max_slope = 0.3;
  const PathPlanner planner{t, config};
  const auto path = planner.plan({20, 100}, {180, 100});
  ASSERT_TRUE(path.has_value());
  // No waypoint sits on the steep flank (|grad| peaks around r≈sigma).
  for (const core::Vec2 wp : *path) {
    const double d = core::distance(wp, {100, 100});
    EXPECT_TRUE(d > 30.0 || d < 4.0) << "waypoint on steep flank at r=" << d;
  }
}

TEST(PathPlanner, StartInsideObstacleSnapsOut) {
  std::vector<Obstacle> obstacles = {boulder({50, 50}, 5.0)};
  const Terrain t{core::Aabb{{0, 0}, {200, 200}}, std::move(obstacles), {}};
  const PathPlanner planner{t};
  const auto path = planner.plan({50, 50}, {150, 150});  // start blocked
  ASSERT_TRUE(path.has_value());
  EXPECT_LT(core::distance(path->back(), {150, 150}), 6.0);
}

TEST(PathPlanner, CorridorWithSideExitIsReachable) {
  // Regression: the JPS cardinal ray returned 'dead end' before testing
  // for a forced neighbour, so the last cell of a corridor — blocked
  // straight ahead but with an open side exit — was never reported as a
  // jump point and the goal behind the exit came back unreachable.
  //
  // Cell grid (4 m cells): a sealed horizontal corridor on row 10 from
  // cx=3..20, walls on rows 9 and 11 plus both ends, with the single
  // opening above the corridor's last cell at (20, 11).
  const Terrain t = empty_terrain();
  PathPlanner planner{t};
  auto block_cell = [&](int cx, int cy) {
    const double s = planner.config().cell_size_m;
    planner.set_region_blocked({(cx + 0.5) * s, (cy + 0.5) * s}, 0.5, true);
  };
  for (int cx = 2; cx <= 21; ++cx) {
    block_cell(cx, 9);
    if (cx != 20) block_cell(cx, 11);
  }
  block_cell(2, 10);   // sealed left end
  block_cell(21, 10);  // sealed right end (the forced-turn dead end)

  const core::Vec2 start{3.5 * 4.0, 10.5 * 4.0};  // inside the corridor
  const core::Vec2 goal{20.5 * 4.0, 13.5 * 4.0};  // beyond the side exit
  const auto path = planner.plan(start, goal);
  ASSERT_TRUE(path.has_value()) << "corridor side exit missed by JPS";
  EXPECT_LT(core::distance(path->back(), goal), 6.0);
  core::Vec2 prev = start;
  for (const core::Vec2 wp : *path) {
    EXPECT_TRUE(planner.segment_clear(prev, wp))
        << "(" << prev.x << "," << prev.y << ")->(" << wp.x << "," << wp.y << ")";
    prev = wp;
  }
  // And back out again: entering the corridor needs the mirrored forced
  // turn at the exit cell.
  EXPECT_TRUE(planner.plan(goal, start).has_value());
}

TEST(PathPlanner, CellFreeRespectsBounds) {
  const Terrain t = empty_terrain();
  const PathPlanner planner{t};
  EXPECT_FALSE(planner.cell_free(-1, 0));
  EXPECT_FALSE(planner.cell_free(0, -1));
  EXPECT_FALSE(planner.cell_free(10000, 0));
  EXPECT_TRUE(planner.cell_free(1, 1));
}

TEST(PathPlanner, SegmentClearDetectsObstacle) {
  std::vector<Obstacle> obstacles = {boulder({100, 100}, 4.0)};
  const Terrain t{core::Aabb{{0, 0}, {200, 200}}, std::move(obstacles), {}};
  const PathPlanner planner{t};
  EXPECT_FALSE(planner.segment_clear({80, 100}, {120, 100}));
  EXPECT_TRUE(planner.segment_clear({80, 120}, {120, 120}));
}

TEST(PathPlanner, WorksiteRoutesAvoidObstacles) {
  // End-to-end: forwarder mission routes keep clearance in a dense stand.
  WorksiteConfig config;
  config.forest.bounds = {{0, 0}, {250, 250}};
  config.forest.boulders_per_hectare = 40;
  config.forest.boulder_radius_mean = 1.5;
  Worksite site{config, 99};
  // Pick start/goal with real clearance so the first/last legs are not
  // forced through a straddling obstacle.
  auto find_clear = [&](core::Vec2 seed) {
    for (double r = 0; r < 60; r += 3) {
      for (double a = 0; a < 6.3; a += 0.5) {
        const core::Vec2 p = seed + core::Vec2{r * std::cos(a), r * std::sin(a)};
        if (site.terrain().bounds().contains(p) &&
            !overlaps_obstacle(site.terrain(), p, 4.0)) {
          return p;
        }
      }
    }
    return seed;
  };
  const core::Vec2 start = find_clear({10, 10});
  const core::Vec2 goal = find_clear({240, 240});
  const auto route = site.plan_route(start, goal);
  ASSERT_FALSE(route.empty());
  core::Vec2 prev = start;
  for (const core::Vec2 wp : route) {
    // Legs must not pass through any boulder footprint (stems are thinner
    // than the planner clearance grid, so check boulders specifically).
    for (const auto* o : site.terrain().obstacles_near_segment(prev, wp, 0.0)) {
      EXPECT_NE(o->kind, ObstacleKind::kBoulder)
          << "route leg crosses a boulder";
    }
    prev = wp;
  }
}

}  // namespace
}  // namespace agrarsec::sim
