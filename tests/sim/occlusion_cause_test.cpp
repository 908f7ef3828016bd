// Occlusion-cause attribution (feeds the SOTIF census), plus exactness
// of the one sight-line path and of the two other segment queries against
// brute-force references over randomized obstacle/hill fields and
// degenerate rays: zero-length rays, from == to with differing heights,
// endpoints on cell boundaries, footprints whose edge lies exactly on the
// segment, and rays that clear, or sit exactly on, their crest bound and
// so skip terrain sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "sim/terrain.h"

namespace agrarsec::sim {
namespace {

using Cause = Terrain::OcclusionCause;

/// Reference resolve with neither acceleration of occlusion_cause: every
/// obstacle in index order, tested with point_segment_distance, instead of
/// the CSR grid walk and its squared-distance filter, and terrain sampled
/// on every ray instead of skipping rays whose lower endpoint clears their
/// crest bound. Same predicates otherwise.
Cause brute_force_cause(const Terrain& t, core::Vec2 from, double from_agl,
                        core::Vec2 to, double to_agl) {
  const double z_from = t.ground_height(from) + from_agl;
  const double z_to = t.ground_height(to) + to_agl;
  const double len = core::distance(from, to);
  if (len < 1e-9) return Cause::kNone;
  const core::Vec2 dir = (to - from) * (1.0 / len);
  for (const Obstacle& o : t.obstacles()) {
    if (core::point_segment_distance(o.footprint.center, from, to) > o.footprint.radius) {
      continue;
    }
    const double s = std::clamp((o.footprint.center - from).dot(dir), 0.0, len);
    if (s < 0.5 || s > len - 0.5) continue;
    const double ray_z = z_from + (z_to - z_from) * (s / len);
    if (ray_z < t.ground_height(from + dir * s) + o.height_m) {
      switch (o.kind) {
        case ObstacleKind::kTree: return Cause::kTree;
        case ObstacleKind::kBoulder: return Cause::kBoulder;
        case ObstacleKind::kBrush: return Cause::kBrush;
      }
    }
  }
  const int samples = std::max(2, static_cast<int>(len / 5.0));
  for (int i = 1; i < samples; ++i) {
    const double s = static_cast<double>(i) / samples;
    const double ray_z = z_from + (z_to - z_from) * s;
    if (ray_z < t.ground_height(from + (to - from) * s) - 1e-9) return Cause::kTerrain;
  }
  return Cause::kNone;
}

struct Ray {
  core::Vec2 to;
  double to_agl;
};

void expect_matches_brute_force(const Terrain& terrain, core::Vec2 from, double agl,
                                const std::vector<Ray>& rays, const char* label) {
  for (std::size_t i = 0; i < rays.size(); ++i) {
    EXPECT_EQ(terrain.occlusion_cause(from, agl, rays[i].to, rays[i].to_agl),
              brute_force_cause(terrain, from, agl, rays[i].to, rays[i].to_agl))
        << label << ": ray " << i << " from (" << from.x << "," << from.y
        << ") agl " << agl << " to (" << rays[i].to.x << "," << rays[i].to.y
        << ") agl " << rays[i].to_agl;
  }
}

Obstacle make(ObstacleKind kind, core::Vec2 at, double radius, double height) {
  Obstacle o;
  o.kind = kind;
  o.footprint = {at, radius};
  o.height_m = height;
  return o;
}

/// Reference for obstacles_near_segment (and, by emptiness, for
/// segment_blocked): every obstacle in index order, tested with
/// point_segment_distance.
std::vector<const Obstacle*> brute_force_near(const Terrain& t, core::Vec2 a, core::Vec2 b,
                                              double margin) {
  std::vector<const Obstacle*> near;
  for (const Obstacle& o : t.obstacles()) {
    if (core::point_segment_distance(o.footprint.center, a, b) <=
        o.footprint.radius + margin) {
      near.push_back(&o);
    }
  }
  return near;
}

TEST(OcclusionCause, NoneOnOpenGround) {
  const Terrain t{core::Aabb{{0, 0}, {200, 200}}, {}, {}};
  EXPECT_EQ(t.occlusion_cause({0, 0}, 2.6, {100, 0}, 1.2),
            Terrain::OcclusionCause::kNone);
}

TEST(OcclusionCause, IdentifiesBoulder) {
  const Terrain t{core::Aabb{{0, 0}, {200, 200}},
                  {make(ObstacleKind::kBoulder, {50, 0}, 2.0, 3.0)}, {}};
  EXPECT_EQ(t.occlusion_cause({0, 0}, 2.6, {100, 0}, 1.2),
            Terrain::OcclusionCause::kBoulder);
}

TEST(OcclusionCause, IdentifiesBrush) {
  const Terrain t{core::Aabb{{0, 0}, {200, 200}},
                  {make(ObstacleKind::kBrush, {80, 0}, 1.0, 1.8)}, {}};
  // Brush at 1.8 m blocks close to the target end of the 2.6->1.2 ray.
  EXPECT_EQ(t.occlusion_cause({0, 0}, 2.6, {100, 0}, 1.2),
            Terrain::OcclusionCause::kBrush);
}

TEST(OcclusionCause, IdentifiesTreeStem) {
  const Terrain t{core::Aabb{{0, 0}, {200, 200}},
                  {make(ObstacleKind::kTree, {50, 0}, 0.3, 16.0)}, {}};
  EXPECT_EQ(t.occlusion_cause({0, 0}, 2.6, {100, 0}, 1.2),
            Terrain::OcclusionCause::kTree);
}

TEST(OcclusionCause, IdentifiesTerrainCrest) {
  const Terrain t{core::Aabb{{0, 0}, {200, 200}}, {},
                  {Hill{{100, 0}, 10.0, 20.0}}};
  EXPECT_EQ(t.occlusion_cause({20, 0}, 2.0, {180, 0}, 1.7),
            Terrain::OcclusionCause::kTerrain);
}

TEST(OcclusionCause, ObstacleBeatsTerrainWhenBothPresent) {
  // Attribution reports the first blocker class found; obstacles are
  // checked before ground sampling.
  const Terrain t{core::Aabb{{0, 0}, {200, 200}},
                  {make(ObstacleKind::kBoulder, {90, 0}, 2.0, 30.0)},
                  {Hill{{100, 0}, 10.0, 20.0}}};
  EXPECT_EQ(t.occlusion_cause({20, 0}, 2.0, {180, 0}, 1.7),
            Terrain::OcclusionCause::kBoulder);
}

TEST(OcclusionCause, ElevatedViewClearsAll) {
  const Terrain t{core::Aabb{{0, 0}, {200, 200}},
                  {make(ObstacleKind::kBoulder, {50, 0}, 2.0, 3.0),
                   make(ObstacleKind::kBrush, {70, 0}, 1.0, 1.8)},
                  {Hill{{100, 0}, 4.0, 30.0}}};
  EXPECT_EQ(t.occlusion_cause({0, 0}, 60.0, {100, 0}, 1.2),
            Terrain::OcclusionCause::kNone);
}

TEST(OcclusionCause, NegativeHillKeepsFarCrestSampled) {
  // A hollow far from the ray must not lower the "ground never rises
  // above this" bound the terrain skip relies on: summing signed heights
  // gave 10 - 9 = 1 m, so this ray (endpoints ~2 m up) skipped sampling
  // and saw straight through the 10 m crest.
  const Terrain t{core::Aabb{{0, 0}, {600, 600}}, {},
                  {Hill{{100, 0}, 10.0, 20.0}, Hill{{500, 500}, -9.0, 20.0}}};
  EXPECT_FALSE(t.line_of_sight({20, 0}, 2.0, {180, 0}, 1.7));
  expect_matches_brute_force(t, {20, 0}, 2.0,
                             {{{180, 0}, 1.7}, {{100, 60}, 1.7}, {{500, 500}, 0.0}},
                             "negative hill");
}

TEST(OcclusionCause, MatchesBruteForceOverRandomizedFields) {
  // Several stand densities, including obstacle-free (pure terrain) and
  // hill-free (pure obstacles): each generated field gets frames of
  // random rays from ground-mast and drone-altitude origins.
  struct FieldSpec {
    double trees_per_ha;
    double brush_per_ha;
    std::size_t hills;
    std::uint64_t seed;
  };
  const FieldSpec specs[] = {
      {400.0, 40.0, 6, 1},   // dense managed stand
      {80.0, 10.0, 6, 2},    // sparse
      {0.0, 0.0, 6, 3},      // terrain-only occlusion
      {400.0, 40.0, 0, 4},   // obstacle-only (flat ground)
      {1000.0, 120.0, 12, 5} // degenerate thicket
  };
  std::size_t blocked = 0;
  std::size_t rays_cast = 0;
  for (const FieldSpec& spec : specs) {
    ForestConfig forest;
    forest.bounds = {{0, 0}, {200, 200}};
    forest.trees_per_hectare = spec.trees_per_ha;
    forest.brush_per_hectare = spec.brush_per_ha;
    forest.boulders_per_hectare = spec.trees_per_ha > 0 ? 8.0 : 0.0;
    forest.hill_count = spec.hills;
    core::Rng terrain_rng{spec.seed};
    const Terrain terrain = Terrain::generate(forest, terrain_rng);

    core::Rng rng{spec.seed * 7919 + 13};
    for (int frame = 0; frame < 8; ++frame) {
      const core::Vec2 from{rng.uniform(5.0, 195.0), rng.uniform(5.0, 195.0)};
      const double agl = frame % 2 == 0 ? rng.uniform(1.0, 3.5)   // mast
                                        : rng.uniform(25.0, 60.0);  // drone
      std::vector<Ray> rays;
      for (int i = 0; i < 48; ++i) {
        rays.push_back({{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)},
                        rng.uniform(0.0, 2.5)});
      }
      expect_matches_brute_force(terrain, from, agl, rays, "random field");
      for (const Ray& ray : rays) {
        ++rays_cast;
        if (terrain.occlusion_cause(from, agl, ray.to, ray.to_agl) != Cause::kNone) {
          ++blocked;
        }
      }
    }
  }
  // Both outcomes must occur, or the comparison proves little.
  EXPECT_GT(blocked, 0u);
  EXPECT_LT(blocked, rays_cast);
}

TEST(OcclusionCause, DegenerateRaysMatchBruteForce) {
  ForestConfig forest;
  forest.bounds = {{0, 0}, {200, 200}};
  core::Rng terrain_rng{42};
  const Terrain terrain = Terrain::generate(forest, terrain_rng);

  const core::Vec2 from{55.0, 85.0};
  std::vector<Ray> rays;
  // from == to, equal heights (planar length exactly zero).
  rays.push_back({from, 1.7});
  // from == to, differing heights (still zero planar length).
  rays.push_back({from, 40.0});
  rays.push_back({from, 0.0});
  // Sub-epsilon planar offset (the < 1e-9 early-out boundary).
  rays.push_back({{from.x + 1e-12, from.y}, 1.7});
  rays.push_back({{from.x, from.y + 1e-10}, 1.7});
  // Endpoints exactly on cell-size multiples (grid cell 10 m): axis-
  // aligned rays that ride cell boundaries the whole way.
  rays.push_back({{50.0, 85.0}, 1.7});
  rays.push_back({{150.0, 85.0}, 1.7});
  rays.push_back({{55.0, 200.0}, 1.7});
  rays.push_back({{60.0, 90.0}, 1.7});
  // Long diagonal corner-to-corner and out-of-frame-corner rays.
  rays.push_back({{0.0, 0.0}, 1.7});
  rays.push_back({{200.0, 200.0}, 0.5});
  rays.push_back({{200.0, 0.0}, 2.0});
  // Target at drone altitude (upward ray clears all hills -> sampling
  // skip) and at ground level.
  rays.push_back({{120.0, 40.0}, 55.0});
  rays.push_back({{120.0, 40.0}, 0.0});
  expect_matches_brute_force(terrain, from, 1.9, rays, "degenerate, mast origin");
  expect_matches_brute_force(terrain, from, 45.0, rays, "degenerate, drone origin");
  // Origin itself on a cell boundary.
  expect_matches_brute_force(terrain, {60.0, 90.0}, 2.2, rays,
                             "degenerate, boundary origin");
  // Zero planar length never occludes, whatever the heights.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(terrain.occlusion_cause(from, 1.9, rays[i].to, rays[i].to_agl),
              Cause::kNone)
        << "ray " << i;
  }
}

TEST(CornerEndpoint, TerrainQueriesMatchObstacleScan) {
  // Route legs between planner cell centres (4 m cells, centres at
  // 2 + 4k m) that end on a 10 m obstacle-index corner, (10 + 20i, 10 + 20j)
  // m. Many of their grid walks stop one step short of the end cell
  // (core::traverse_grid); every answer must still equal a scan over all
  // obstacles, at the worksite planners' clearances, none, and margins of
  // one and two and a half index cells.
  constexpr double kMargins[] = {0.0, 0.6, 2.0, 10.0, 25.0};
  std::size_t blocked = 0;
  std::size_t queries = 0;
  std::size_t short_walks = 0;
  for (const double trees_per_ha : {120.0, 400.0}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ForestConfig forest;
      forest.bounds = {{0, 0}, {200, 200}};
      forest.trees_per_hectare = trees_per_ha;
      core::Rng terrain_rng{seed * 31 + static_cast<std::uint64_t>(trees_per_ha)};
      const Terrain terrain = Terrain::generate(forest, terrain_rng);

      core::Rng rng{seed * 7919 + 101};
      for (int i = 0; i < 300; ++i) {
        const core::Vec2 b{10.0 + 20.0 * static_cast<double>(rng.next_below(10)),
                           10.0 + 20.0 * static_cast<double>(rng.next_below(10))};
        const auto centre_near = [&](double v) {
          const auto k = static_cast<std::int64_t>((v - 2.0) / 4.0) +
                         static_cast<std::int64_t>(rng.next_below(31)) - 15;
          return 2.0 + 4.0 * static_cast<double>(std::clamp<std::int64_t>(k, 0, 49));
        };
        const core::Vec2 a{centre_near(b.x), centre_near(b.y)};

        const std::pair<std::int64_t, std::int64_t> end_cell{
            static_cast<std::int64_t>(b.x / 10.0), static_cast<std::int64_t>(b.y / 10.0)};
        std::pair<std::int64_t, std::int64_t> last{};
        core::traverse_grid(a, b, 10.0, [&](std::int64_t cx, std::int64_t cy) {
          last = {cx, cy};
          return true;
        });
        if (last != end_cell) ++short_walks;

        for (const double m : kMargins) {
          const std::vector<const Obstacle*> scan = brute_force_near(terrain, a, b, m);
          ++queries;
          if (!scan.empty()) ++blocked;
          EXPECT_EQ(terrain.segment_blocked(a, b, m), !scan.empty())
              << "(" << a.x << "," << a.y << ")->(" << b.x << "," << b.y << ") margin " << m;
          EXPECT_EQ(terrain.obstacles_near_segment(a, b, m), scan)
              << "(" << a.x << "," << a.y << ")->(" << b.x << "," << b.y << ") margin " << m;
        }
        expect_matches_brute_force(terrain, a, i % 2 == 0 ? 2.6 : 40.0,
                                   {{b, 1.7}, {b, 0.0}}, "corner endpoint");
      }
    }
  }
  // Short walks, and both answers, must occur, or the comparison proves
  // little.
  EXPECT_GT(short_walks, 0u);
  EXPECT_GT(blocked, 0u);
  EXPECT_LT(blocked, queries);
}

TEST(SegmentQueries, FootprintEdgesOnTheSegmentMatchBruteForce) {
  // Footprints whose edge, widened by the query's margin, lies exactly on
  // segment (0,0)->(100,0) or one ulp either side of it: beside its middle,
  // below it, and beyond its start. Then near-ties on slanted segments,
  // where the distance is inexact and the squared test's guard band
  // decides, and legs that hug a 10 m index-cell border. Margins run past
  // the index cell. Each footprint is a tall stem alone on flat ground, so
  // occlusion_cause reports it exactly when the ray meets it mid-span.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMargins[] = {0.0, 0.6, 2.0, 10.0, 25.0};
  const core::Aabb bounds{{-20, -20}, {200, 200}};
  std::size_t met = 0;
  std::size_t missed = 0;
  const auto check = [&](core::Vec2 a, core::Vec2 b, const Obstacle& o, double margin) {
    SCOPED_TRACE(testing::Message()
                 << std::hexfloat << "(" << a.x << "," << a.y << ")->(" << b.x << ","
                 << b.y << ") centre (" << o.footprint.center.x << ","
                 << o.footprint.center.y << ") radius " << o.footprint.radius
                 << " margin " << margin);
    const Terrain t{bounds, {o}, {}};
    const auto near = brute_force_near(t, a, b, margin);
    (near.empty() ? missed : met) += 1;
    EXPECT_EQ(t.obstacles_near_segment(a, b, margin), near);
    EXPECT_EQ(t.segment_blocked(a, b, margin), !near.empty());
    EXPECT_EQ(t.occlusion_cause(a, 2.6, b, 1.2), brute_force_cause(t, a, 2.6, b, 1.2));
  };

  const core::Vec2 a{0, 0}, b{100, 0};
  std::vector<Obstacle> edges;
  for (const double margin : kMargins) {
    for (const double radius : {1.5, std::nextafter(1.5, 0.0), std::nextafter(1.5, kInf)}) {
      const double reach = 1.5 + margin;
      for (const double offset :
           {reach, std::nextafter(reach, 0.0), std::nextafter(reach, kInf)}) {
        for (const core::Vec2 centre :
             {core::Vec2{50, offset}, core::Vec2{50, -offset}, core::Vec2{-offset, 0}}) {
          const Obstacle o = make(ObstacleKind::kTree, centre, radius, 16.0);
          edges.push_back(o);
          for (const double m : kMargins) check(a, b, o, m);
        }
      }
    }
  }
  // All of them in one field: the same subset, in index order.
  const Terrain field{bounds, edges, {}};
  for (const double m : kMargins) {
    EXPECT_EQ(field.obstacles_near_segment(a, b, m), brute_force_near(field, a, b, m))
        << "margin " << m;
  }

  core::Rng rng{1521};
  for (int i = 0; i < 400; ++i) {
    const core::Vec2 p{rng.uniform(0.0, 180.0), rng.uniform(0.0, 180.0)};
    const core::Vec2 q{rng.uniform(0.0, 180.0), rng.uniform(0.0, 180.0)};
    const core::Vec2 centre{rng.uniform(0.0, 180.0), rng.uniform(0.0, 180.0)};
    const double margin = kMargins[static_cast<std::size_t>(i) % std::size(kMargins)];
    const double reach = core::point_segment_distance(centre, p, q) - margin;
    if (reach <= 0.0) continue;  // footprints have a positive radius
    for (const double radius :
         {reach, std::nextafter(reach, 0.0), std::nextafter(reach, kInf)}) {
      check(p, q, make(ObstacleKind::kTree, centre, radius, 16.0), margin);
    }
  }

  // One boulder 22 m from a 100 m leg: inside a 25 m margin, outside a
  // 21 m one. A walk of each crossed cell's 3x3 neighbourhood never
  // reached its cell.
  for (const double m : {21.0, 25.0}) {
    check({0, 2}, {100, 2}, make(ObstacleKind::kBoulder, {50, 24}, 0.5, 1.0), m);
  }

  // Legs that hug a 10 m index-cell border from one ulp inside the cell
  // beside it, each with a footprint tangent to the leg from the border's
  // far side. The walk stays in the leg's own column (row) while the
  // footprint's bounding box lies in the next one, so the footprint is
  // found only because the index lists it in the cells its box comes
  // within the rounding cover of (DESIGN.md §29). The first is a case a
  // search over such footprints found.
  check({0x1.dffffffffffffp+4, -0x1.30ab02d7f17d9p+4}, {0x1.ep+4, 0x1.e150282f7f57dp+4},
        make(ObstacleKind::kTree, {0x1.042451593b6cbp+5, 0x1.325b7cd6dbe95p+3},
             0x1.42451593b6cbp+1, 16.0),
        0.0);
  for (int i = 0; i < 2000; ++i) {
    const double border = 10.0 * static_cast<double>(1 + rng.next_below(16));
    const double side = i % 2 == 0 ? -1.0 : 1.0;  // which cell the leg starts in
    const double inside = std::nextafter(border, side * kInf);
    const double from = rng.uniform(-10.0, 170.0), to = rng.uniform(-10.0, 170.0);
    const double along = rng.uniform(std::min(from, to), std::max(from, to));
    const double across = border - side * rng.uniform(0.05, 3.0);
    const bool rows = i % 4 >= 2;  // hug a row border instead of a column's
    const auto at = [rows](double u, double v) {
      return rows ? core::Vec2{v, u} : core::Vec2{u, v};
    };
    const core::Vec2 p = at(inside, from), q = at(border, to), centre = at(across, along);
    const double margin = i % 8 < 4 ? 0.0 : kMargins[1 + rng.next_below(2)];
    const double reach = core::point_segment_distance(centre, p, q) - margin;
    if (reach <= 0.0) continue;
    for (const double radius :
         {reach, std::nextafter(reach, 0.0), std::nextafter(reach, kInf)}) {
      check(p, q, make(ObstacleKind::kTree, centre, radius, 16.0), margin);
    }
  }
  // Both answers occur, so the comparison proves something either way.
  EXPECT_GT(met, 0u);
  EXPECT_GT(missed, 0u);
}

TEST(OcclusionCause, LowerEndpointOnItsCrestBoundMatchesBruteForce) {
  // One hill beside a level ray. The ray's crest bound is the hill's
  // height at the ray's closest point, (50, 0), where the brute force also
  // samples the ground (20 samples over 100 m). Endpoint heights step
  // through the bound, one ulp either side of it, and the 1e-9 m terrain
  // margin: on and above the bound the skip decides, below it the samples
  // do, and the answers must agree throughout.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Hill hill{{50, 10}, 4.0, 5.0};
  const Terrain t{core::Aabb{{0, 0}, {200, 200}}, {}, {hill}};
  const core::Vec2 from{0, 0}, to{100, 0};
  const double d2 =
      (hill.center - core::closest_point_on_segment(hill.center, from, to)).norm_sq();
  const double bound =
      hill.height_m * std::exp(-d2 / (2.0 * hill.radius_m * hill.radius_m));
  // The endpoints' own ground is far below an ulp of the bound, so an
  // endpoint given `bound` above ground sits exactly on the bound.
  ASSERT_EQ(t.ground_height(from) + bound, bound);
  ASSERT_EQ(t.ground_height(to) + bound, bound);
  ASSERT_EQ(t.ground_height({50, 0}), bound);

  std::size_t terrain = 0;
  std::size_t clear = 0;
  for (const double low : {bound, std::nextafter(bound, 0.0), std::nextafter(bound, kInf),
                           bound - 1e-9, bound - 2e-9, bound - 1e-6, bound + 1e-6}) {
    for (const double high : {low, low + 1e-9, low + 1.0}) {
      for (const bool swap : {false, true}) {
        const core::Vec2 p = swap ? to : from;
        const core::Vec2 q = swap ? from : to;
        const Cause want = brute_force_cause(t, p, low, q, high);
        EXPECT_EQ(t.occlusion_cause(p, low, q, high), want)
            << std::hexfloat << "low " << low << " high " << high << " bound " << bound;
        (want == Cause::kTerrain ? terrain : clear) += 1;
      }
    }
  }
  EXPECT_EQ(t.occlusion_cause(from, bound, to, bound), Cause::kNone);
  EXPECT_GT(terrain, 0u);
  EXPECT_GT(clear, 0u);
}

}  // namespace
}  // namespace agrarsec::sim
