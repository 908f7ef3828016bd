// Route cache, generation invalidation and lazy re-planning: the planner
// must behave as pure memoisation (bit-identical to an uncached planner),
// invalidate across terrain mutations, and let machines retarget routes
// without re-planning when the goal barely moved.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/rng.h"
#include "sim/machine.h"
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

TEST(PlannerCache, StartEqualsGoalCellYieldsSingleWaypoint) {
  const Terrain t = empty_terrain();
  const PathPlanner planner{t};
  // Same 4 m planning cell, different exact points.
  const auto path = planner.plan({50.2, 50.1}, {51.9, 50.8});
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->size(), 1u);
  // The single waypoint is the goal cell's center.
  EXPECT_LT(core::distance(path->front(), {51.9, 50.8}),
            planner.config().cell_size_m);
}

TEST(PlannerCache, GoalOnBlockedCellSnapsToNearestFree) {
  std::vector<Obstacle> obstacles = {boulder({100, 100}, 5.0)};
  const Terrain t{core::Aabb{{0, 0}, {200, 200}}, std::move(obstacles), {}};
  const PathPlanner planner{t};
  // Goal dead-center on the boulder: plan() must snap it off and succeed.
  const auto path = planner.plan({20, 20}, {100, 100});
  ASSERT_TRUE(path.has_value());
  ASSERT_FALSE(path->empty());
  // Route terminates near (but not inside) the boulder footprint.
  const core::Vec2 end = path->back();
  EXPECT_LT(core::distance(end, {100, 100}), 20.0);
  EXPECT_FALSE(overlaps_obstacle(t, end, planner.config().clearance_m));
}

TEST(PlannerCache, RepeatedPlanHitsCache) {
  const Terrain t = empty_terrain();
  const PathPlanner planner{t};
  const auto first = planner.plan({10, 10}, {150, 150});
  const auto second = planner.plan({10, 10}, {150, 150});
  EXPECT_TRUE(same_route(first, second));
  EXPECT_EQ(planner.stats().plans, 2u);
  EXPECT_EQ(planner.stats().cache_hits, 1u);
  EXPECT_EQ(planner.stats().cache_misses, 1u);
  EXPECT_EQ(planner.cache_size(), 1u);
}

TEST(PlannerCache, UnreachableResultIsCachedToo) {
  std::vector<Obstacle> obstacles;
  for (double angle = 0; angle < 6.3; angle += 0.15) {
    obstacles.push_back(
        boulder({100 + 20 * std::cos(angle), 100 + 20 * std::sin(angle)}, 4.0));
  }
  const Terrain t{core::Aabb{{0, 0}, {200, 200}}, std::move(obstacles), {}};
  const PathPlanner planner{t};
  EXPECT_FALSE(planner.plan({10, 10}, {100, 100}).has_value());
  EXPECT_FALSE(planner.plan({10, 10}, {100, 100}).has_value());
  EXPECT_EQ(planner.stats().cache_hits, 1u);  // negative entry served
  EXPECT_EQ(planner.stats().cache_misses, 1u);
}

TEST(PlannerCache, TerrainMutationInvalidatesCachedRoute) {
  const Terrain t = empty_terrain();
  PathPlanner planner{t};
  const core::Vec2 start{20, 100};
  const core::Vec2 goal{180, 100};

  const auto original = planner.plan(start, goal);
  ASSERT_TRUE(original.has_value());
  const std::uint64_t gen0 = planner.generation();

  // Block a disc square across the straight line.
  planner.set_region_blocked({100, 100}, 12.0, true);
  EXPECT_GT(planner.generation(), gen0);

  const auto detour = planner.plan(start, goal);
  ASSERT_TRUE(detour.has_value());
  // The stale entry must have been evicted, not served.
  EXPECT_EQ(planner.stats().invalidations, 1u);
  EXPECT_EQ(planner.stats().cache_hits, 0u);
  EXPECT_FALSE(same_route(original, detour));
  // Every leg of the detour avoids the blocked disc.
  core::Vec2 prev = start;
  for (const core::Vec2 wp : *detour) {
    EXPECT_TRUE(planner.segment_clear(prev, wp));
    prev = wp;
  }

  // Freeing the region restores the original plan bit-for-bit (plans are
  // a pure function of the cells and the blocked grid).
  planner.set_region_blocked({100, 100}, 12.0, false);
  const auto restored = planner.plan(start, goal);
  EXPECT_TRUE(same_route(original, restored));
}

TEST(PlannerCache, NoOpMutationKeepsGenerationAndCache) {
  const Terrain t = empty_terrain();
  PathPlanner planner{t};
  const auto first = planner.plan({10, 10}, {150, 150});
  ASSERT_TRUE(first.has_value());
  const std::uint64_t gen = planner.generation();
  // Freeing already-free cells changes nothing: no generation bump, and
  // the cached route stays valid.
  planner.set_region_blocked({50, 50}, 10.0, false);
  EXPECT_EQ(planner.generation(), gen);
  (void)planner.plan({10, 10}, {150, 150});
  EXPECT_EQ(planner.stats().cache_hits, 1u);
}

TEST(PlannerCache, CacheOnAndOffAreBitIdentical) {
  core::Rng rng{3};
  ForestConfig forest;
  forest.bounds = {{0, 0}, {300, 300}};
  forest.boulders_per_hectare = 30;
  core::Rng terrain_rng{11};
  const Terrain t = Terrain::generate(forest, terrain_rng);

  PlannerConfig off;
  off.cache_enabled = false;
  const PathPlanner cached{t};
  const PathPlanner uncached{t, off};

  // Mixed fresh + repeated queries: repeats are exactly where a buggy
  // cache would diverge.
  std::vector<std::pair<core::Vec2, core::Vec2>> queries;
  for (int i = 0; i < 30; ++i) {
    queries.emplace_back(core::Vec2{rng.uniform(10, 290), rng.uniform(10, 290)},
                         core::Vec2{rng.uniform(10, 290), rng.uniform(10, 290)});
  }
  for (int i = 0; i < 20; ++i) queries.push_back(queries[static_cast<std::size_t>(i) % 10]);

  for (const auto& [from, to] : queries) {
    EXPECT_TRUE(same_route(cached.plan(from, to), uncached.plan(from, to)));
  }
  EXPECT_GT(cached.stats().cache_hits, 0u);
  EXPECT_EQ(uncached.stats().cache_hits, 0u);
  EXPECT_EQ(uncached.cache_size(), 0u);
}

TEST(LazyReplan, ReusesRouteForNearbyGoal) {
  const Terrain t = empty_terrain();
  const PathPlanner planner{t};
  Machine m{MachineId{1}, MachineKind::kForwarder, "f1", {10, 10}, {}};

  const auto route = planner.plan({10, 10}, {150, 150});
  ASSERT_TRUE(route.has_value());
  m.set_route({route->begin(), route->end()}, {150, 150}, planner.generation());
  ASSERT_TRUE(m.route_goal().has_value());

  // Goal moved 3 m (within the 6 m replan threshold): reuse, retargeting
  // the tail.
  EXPECT_TRUE(m.try_reuse_route({153, 150}, planner));
  ASSERT_FALSE(m.idle());
  EXPECT_EQ(m.route_goal()->x, 153.0);

  // Goal moved far: must decline so the caller re-plans.
  EXPECT_FALSE(m.try_reuse_route({10, 150}, planner));
}

TEST(LazyReplan, DeclinesWhenRouteNoLongerClear) {
  const Terrain t = empty_terrain();
  PathPlanner planner{t};
  Machine m{MachineId{1}, MachineKind::kForwarder, "f1", {10, 100}, {}};
  const auto route = planner.plan({10, 100}, {190, 100});
  ASSERT_TRUE(route.has_value());
  m.set_route({route->begin(), route->end()}, {190, 100}, planner.generation());

  // A hazard appears across the straight route: reuse must be declined
  // even though the goal did not move at all.
  planner.set_region_blocked({100, 100}, 10.0, true);
  EXPECT_FALSE(m.try_reuse_route({190, 100}, planner));
}

TEST(LazyReplan, DeclinesAfterAnyGridMutation) {
  // Reuse only re-checks the pose leg and the retargeted tail, never the
  // intermediate legs — so it must decline on *any* grid mutation since
  // planning (stale generation), even one nowhere near those two legs.
  // Otherwise a hazard cutting a middle leg would be driven through.
  const Terrain t = empty_terrain();
  PathPlanner planner{t};
  Machine m{MachineId{1}, MachineKind::kForwarder, "f1", {10, 100}, {}};
  const auto route = planner.plan({10, 100}, {190, 100});
  ASSERT_TRUE(route.has_value());
  m.set_route({route->begin(), route->end()}, {190, 100}, planner.generation());

  // Same generation: reuse works.
  EXPECT_TRUE(m.try_reuse_route({192, 100}, planner));

  // Mutation far from the pose leg and the tail leg: generation is stale,
  // reuse declined, caller must re-plan.
  planner.set_region_blocked({100, 20}, 5.0, true);
  EXPECT_FALSE(m.try_reuse_route({190, 100}, planner));

  // A route planned under the new generation is reusable again.
  const auto fresh = planner.plan({10, 100}, {190, 100});
  ASSERT_TRUE(fresh.has_value());
  m.set_route({fresh->begin(), fresh->end()}, {190, 100}, planner.generation());
  EXPECT_TRUE(m.try_reuse_route({192, 100}, planner));
}

TEST(LazyReplan, UntrackedRouteIsNeverReused) {
  const Terrain t = empty_terrain();
  const PathPlanner planner{t};
  Machine m{MachineId{1}, MachineKind::kForwarder, "f1", {10, 10}, {}};
  m.head_to({50, 50});  // untracked route
  EXPECT_FALSE(m.route_goal().has_value());
  EXPECT_FALSE(m.try_reuse_route({50, 50}, planner));
  // push_waypoint also clears tracking.
  m.set_route({{50, 50}}, {50, 50}, planner.generation());
  m.push_waypoint({60, 60});
  EXPECT_FALSE(m.route_goal().has_value());
}

TEST(PlannerCache, BudgetExhaustionIsNotCached) {
  // A search that dies on max_expansions is a transient failure, not proof
  // of unreachability: caching it would pin 'unreachable' on the cell pair
  // for the whole generation. Both plans below must run a real search.
  const Terrain t = empty_terrain();
  PlannerConfig config;
  config.max_expansions = 1;  // everything non-trivial exhausts the budget
  const PathPlanner planner{t, config};
  EXPECT_FALSE(planner.plan({10, 10}, {150, 30}).has_value());
  EXPECT_FALSE(planner.plan({10, 10}, {150, 30}).has_value());
  EXPECT_EQ(planner.stats().cache_hits, 0u);
  EXPECT_EQ(planner.stats().cache_misses, 2u);
  EXPECT_EQ(planner.cache_size(), 0u);
}

TEST(WorksiteMetrics, SurfacesPlannerAndReuseCounters) {
  WorksiteConfig config;
  config.forest.bounds = {{0, 0}, {250, 250}};
  config.harvester_output_m3_per_min = 30.0;  // piles appear within seconds
  Worksite site{config, 7};
  site.add_harvester("h", {125, 125});
  site.add_forwarder("f", {40, 40});
  site.add_worker("w", {60, 60}, {70, 70});
  for (int i = 0; i < 3000; ++i) site.step();

  const Worksite::Metrics m = site.metrics();
  EXPECT_EQ(m.delivered_m3, site.delivered_m3());
  EXPECT_EQ(m.completed_cycles, site.completed_cycles());
  EXPECT_EQ(m.min_human_separation, site.min_human_separation());
  EXPECT_EQ(m.separation_samples,
            site.telemetry().registry().histogram("worksite.separation_m", 0, 1, 1).count());
  EXPECT_EQ(m.planner.plans, site.planner().stats().plans);
  // A running worksite plans routes; the counters must be live.
  EXPECT_GT(m.planner.plans, 0u);
  EXPECT_EQ(m.planner.cache_hits + m.planner.cache_misses, m.planner.plans);
}

}  // namespace
}  // namespace agrarsec::sim
