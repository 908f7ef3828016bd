// Planner hot-path benchmark: the dispatcher re-plans routes for the same
// handful of (machine, pile/landing) cell pairs every few steps, which is
// exactly the workload the route cache targets. This bench replays a
// realistic repeated-query mix against a cached and an uncached planner,
// reports the throughput ratio (the PR's acceptance floor is 5x), and
// cross-checks that every cached answer is bit-identical to the uncached
// one — the cache must be a pure memoisation, never a behaviour change.
// It also times the blocked-grid build, a cost every new session pays
// once per planner, over a fixed set of generated stands; the blocked-cell
// total next to the rate is a deterministic work counter.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <vector>

#include "core/rng.h"
#include "obs/telemetry.h"
#include "sim/pathfinding.h"
#include "sim/terrain.h"

using namespace agrarsec;

namespace {

using Plan = std::optional<std::vector<core::Vec2>>;

struct Query {
  core::Vec2 from;
  core::Vec2 to;
};

/// The dispatcher workload: a small working set of endpoints queried over
/// and over (machines shuttling between piles and the landing), plus a
/// trickle of fresh pairs as new piles spawn.
std::vector<Query> make_queries(const sim::Terrain& terrain, std::size_t count) {
  core::Rng rng{7};
  const core::Aabb& b = terrain.bounds();
  std::vector<Query> working_set;
  for (std::size_t i = 0; i < 24; ++i) {
    working_set.push_back(Query{
        {rng.uniform(b.min.x + 10, b.max.x - 10), rng.uniform(b.min.y + 10, b.max.y - 10)},
        {rng.uniform(b.min.x + 10, b.max.x - 10), rng.uniform(b.min.y + 10, b.max.y - 10)}});
  }
  std::vector<Query> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 16 == 15) {  // occasional fresh pair: a newly spawned pile
      queries.push_back(Query{
          {rng.uniform(b.min.x + 10, b.max.x - 10), rng.uniform(b.min.y + 10, b.max.y - 10)},
          {rng.uniform(b.min.x + 10, b.max.x - 10), rng.uniform(b.min.y + 10, b.max.y - 10)}});
    } else {
      queries.push_back(working_set[rng.next_below(working_set.size())]);
    }
  }
  return queries;
}

bool same_plan(const Plan& a, const Plan& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  if (a->size() != b->size()) return false;
  for (std::size_t i = 0; i < a->size(); ++i) {
    if ((*a)[i].x != (*b)[i].x || (*a)[i].y != (*b)[i].y) return false;
  }
  return true;
}

/// Default-config planner builds per second over the stands, `rounds`
/// times each. A planner builds its grid on first use (DESIGN.md §31), so
/// each one reads one cell.
double builds_per_sec(const std::vector<sim::Terrain>& stands, int rounds) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (const sim::Terrain& terrain : stands) {
      const sim::PathPlanner planner{terrain};
      static_cast<void>(planner.cell_free(0, 0));
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(stands.size()) * rounds /
         std::chrono::duration<double>(t1 - t0).count();
}

/// Blocked cells of a default-config planner, summed over the stands.
std::uint64_t blocked_cells(const std::vector<sim::Terrain>& stands) {
  std::uint64_t blocked = 0;
  for (const sim::Terrain& terrain : stands) {
    const sim::PathPlanner planner{terrain};
    const double cell = planner.config().cell_size_m;
    const int w = static_cast<int>(std::ceil(terrain.bounds().width() / cell));
    const int h = static_cast<int>(std::ceil(terrain.bounds().height() / cell));
    for (int cy = 0; cy < h; ++cy) {
      for (int cx = 0; cx < w; ++cx) blocked += planner.cell_free(cx, cy) ? 0 : 1;
    }
  }
  return blocked;
}

double run(const sim::PathPlanner& planner, const std::vector<Query>& queries,
           std::vector<Plan>* out) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const Query& q : queries) {
    Plan p = planner.plan(q.from, q.to);
    if (out != nullptr) out->push_back(std::move(p));
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  agrarsec::obs::consume_artifact_dir_flag(argc, argv);
  // The cached planner mirrors its stats into this registry; the artifact
  // (bench_planner.telemetry.json) carries hit/miss/expansion counters
  // alongside the wall time.
  obs::Telemetry telemetry;
  obs::BenchArtifact artifact{"bench_planner", &telemetry};

  core::Rng rng{42};
  sim::ForestConfig forest;
  forest.bounds = {{0, 0}, {500, 500}};
  forest.trees_per_hectare = 250;
  const sim::Terrain terrain = sim::Terrain::generate(forest, rng);

  constexpr std::size_t kQueries = 4000;
  const std::vector<Query> queries = make_queries(terrain, kQueries);

  sim::PlannerConfig cached_cfg;
  sim::PlannerConfig uncached_cfg;
  uncached_cfg.cache_enabled = false;
  sim::PathPlanner cached{terrain, cached_cfg};
  const sim::PathPlanner uncached{terrain, uncached_cfg};
  cached.set_telemetry(&telemetry);

  // Parity first (also warms the cache for the timed run).
  std::vector<Plan> cached_plans, uncached_plans;
  cached_plans.reserve(kQueries);
  uncached_plans.reserve(kQueries);
  run(cached, queries, &cached_plans);
  run(uncached, queries, &uncached_plans);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kQueries; ++i) {
    if (!same_plan(cached_plans[i], uncached_plans[i])) ++mismatches;
  }

  const double t_cached = run(cached, queries, nullptr);
  const double t_uncached = run(uncached, queries, nullptr);
  const double rate_cached = static_cast<double>(kQueries) / t_cached;
  const double rate_uncached = static_cast<double>(kQueries) / t_uncached;

  // Grid builds: 20 stands at the campaign density (120 stems/ha on the
  // default 500 m square), generated outside the timed loop.
  std::vector<sim::Terrain> stands;
  sim::ForestConfig stand_config;
  stand_config.trees_per_hectare = 120;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    core::Rng stand_rng{seed};
    stands.push_back(sim::Terrain::generate(stand_config, stand_rng));
  }
  const double build_rate = builds_per_sec(stands, 10);
  const std::uint64_t grid_blocked = blocked_cells(stands);

  const sim::PlannerStats& stats = cached.stats();
  std::printf("queries               : %zu (working set 24, 1/16 fresh)\n", kQueries);
  std::printf("cached                : %10.0f plans/s  (%.3f s)\n", rate_cached, t_cached);
  std::printf("uncached              : %10.0f plans/s  (%.3f s)\n", rate_uncached, t_uncached);
  std::printf("speedup               : %10.1fx  (acceptance floor: 5x)\n",
              rate_cached / rate_uncached);
  std::printf("parity mismatches     : %zu of %zu (must be 0)\n", mismatches, kQueries);
  std::printf("cache hits/misses     : %llu / %llu\n",
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses));
  std::printf("jps expansions        : %llu\n",
              static_cast<unsigned long long>(stats.jps_expansions));
  std::printf("cache entries         : %zu\n", cached.cache_size());
  std::printf("grid builds           : %10.0f builds/s  (%zu stands x 10)\n", build_rate,
              stands.size());
  std::printf("grid blocked cells    : %llu\n",
              static_cast<unsigned long long>(grid_blocked));
  // Machine-readable lines for the CI regression gate (scripts/bench_gate.py).
  std::printf("BENCH planner_cached_plans_per_sec=%.0f\n", rate_cached);
  std::printf("BENCH planner_uncached_plans_per_sec=%.0f\n", rate_uncached);
  std::printf("BENCH planner_parity_mismatches=%zu\n", mismatches);
  std::printf("BENCH planner_builds_per_sec=%.0f\n", build_rate);
  std::printf("BENCH planner_blocked_cells_exact=%llu\n",
              static_cast<unsigned long long>(grid_blocked));
  return mismatches == 0 ? 0 : 1;
}
