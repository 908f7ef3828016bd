#include "core/geometry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numbers>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"

namespace agrarsec::core {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1, 2}, b{3, -1};
  EXPECT_EQ((a + b), (Vec2{4, 1}));
  EXPECT_EQ((a - b), (Vec2{-2, 3}));
  EXPECT_EQ((a * 2.0), (Vec2{2, 4}));
}

TEST(Vec2, NormAndDot) {
  const Vec2 a{3, 4};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm_sq(), 25.0);
  EXPECT_DOUBLE_EQ(a.dot({1, 1}), 7.0);
  EXPECT_DOUBLE_EQ(a.cross({1, 0}), -4.0);
}

TEST(Vec2, NormalizedZeroIsZero) {
  EXPECT_EQ(Vec2{}.normalized(), (Vec2{}));
}

TEST(Vec2, Rotated) {
  const Vec2 a{1, 0};
  const Vec2 r = a.rotated(std::numbers::pi / 2);
  EXPECT_NEAR(r.x, 0.0, 1e-12);
  EXPECT_NEAR(r.y, 1.0, 1e-12);
}

TEST(Vec3, DistanceIncludesHeight) {
  const Vec3 a{0, 0, 0}, b{0, 0, 5};
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
}

TEST(Angles, WrapAngle) {
  EXPECT_NEAR(wrap_angle(3 * std::numbers::pi), std::numbers::pi, 1e-12);
  EXPECT_NEAR(wrap_angle(-3 * std::numbers::pi), std::numbers::pi, 1e-12);
  EXPECT_NEAR(wrap_angle(0.5), 0.5, 1e-12);
}

TEST(Angles, AngularDistanceShortestWay) {
  EXPECT_NEAR(angular_distance(0.1, 2 * std::numbers::pi - 0.1), 0.2, 1e-9);
}

TEST(Aabb, ContainsAndClamp) {
  const Aabb box{{0, 0}, {10, 5}};
  EXPECT_TRUE(box.contains({5, 2}));
  EXPECT_FALSE(box.contains({11, 2}));
  EXPECT_EQ(box.clamp({12, -3}), (Vec2{10, 0}));
  EXPECT_DOUBLE_EQ(box.width(), 10.0);
  EXPECT_DOUBLE_EQ(box.height(), 5.0);
}

TEST(Circle, Contains) {
  const Circle c{{0, 0}, 2.0};
  EXPECT_TRUE(c.contains({1, 1}));
  EXPECT_FALSE(c.contains({2, 2}));
}

TEST(Segment, PointSegmentDistance) {
  EXPECT_DOUBLE_EQ(point_segment_distance({0, 1}, {-1, 0}, {1, 0}), 1.0);
  // Beyond the endpoint: distance to endpoint.
  EXPECT_DOUBLE_EQ(point_segment_distance({3, 0}, {-1, 0}, {1, 0}), 2.0);
  // Degenerate segment.
  EXPECT_DOUBLE_EQ(point_segment_distance({3, 4}, {0, 0}, {0, 0}), 5.0);
}

TEST(Segment, IntersectsCircle) {
  const Circle c{{0, 0}, 1.0};
  EXPECT_TRUE(segment_intersects_circle({-2, 0}, {2, 0}, c));
  EXPECT_FALSE(segment_intersects_circle({-2, 2}, {2, 2}, c));
  // Tangent (distance == radius) does not count as blocking.
  EXPECT_FALSE(segment_intersects_circle({-2, 1}, {2, 1}, c));
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// point_segment_distance as it read before closest_point_on_segment
/// existed, kept verbatim as the bit-exact reference.
double reference_point_segment_distance(Vec2 p, Vec2 a, Vec2 b) {
  const Vec2 ab = b - a;
  const double len_sq = ab.norm_sq();
  if (len_sq == 0.0) return distance(p, a);
  const double t = std::clamp((p - a).dot(ab) / len_sq, 0.0, 1.0);
  return distance(p, a + ab * t);
}

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

TEST(Segment, ClosestPointIsOnTheSegment) {
  EXPECT_EQ(closest_point_on_segment({0, 1}, {-1, 0}, {1, 0}), (Vec2{0, 0}));
  EXPECT_EQ(closest_point_on_segment({3, 5}, {-1, 0}, {1, 0}), (Vec2{1, 0}));
  EXPECT_EQ(closest_point_on_segment({-3, 5}, {-1, 0}, {1, 0}), (Vec2{-1, 0}));
  EXPECT_EQ(closest_point_on_segment({3, 4}, {2, 2}, {2, 2}), (Vec2{2, 2}));
}

TEST(Segment, PointSegmentDistanceBitEqualToTheReference) {
  // Random segments at several scales, a fifth of them zero-length, and
  // points on, beside and beyond them.
  Rng rng{2208};
  std::size_t zero_length = 0;
  for (int i = 0; i < 100000; ++i) {
    const double scale = std::ldexp(1.0, static_cast<int>(rng.next_below(41)) - 20);
    const Vec2 a{rng.uniform(-1.0, 1.0) * scale, rng.uniform(-1.0, 1.0) * scale};
    const Vec2 b = i % 5 == 0
                       ? a
                       : Vec2{rng.uniform(-1.0, 1.0) * scale, rng.uniform(-1.0, 1.0) * scale};
    const Vec2 p{rng.uniform(-2.0, 2.0) * scale, rng.uniform(-2.0, 2.0) * scale};
    if (a == b) ++zero_length;
    const double got = point_segment_distance(p, a, b);
    const double want = reference_point_segment_distance(p, a, b);
    ASSERT_TRUE(same_bits(got, want))
        << "p (" << p.x << "," << p.y << ") a (" << a.x << "," << a.y << ") b ("
        << b.x << "," << b.y << "): " << got << " vs " << want;
    ASSERT_TRUE(same_bits(got, distance(p, closest_point_on_segment(p, a, b))));
  }
  EXPECT_EQ(zero_length, 20000u);
}

/// Checks within against the hypot comparison it must equal, counting
/// the disagreements and keeping the first for the failure message.
struct WithinCheck {
  std::size_t cases = 0;
  std::size_t inside = 0;
  std::size_t mismatches = 0;
  std::string first;

  void operator()(Vec2 a, Vec2 b, double r) {
    ++cases;
    const bool want = distance(a, b) <= r;
    if (want) ++inside;
    if (within(a, b, r) == want || mismatches++ > 0) return;
    std::ostringstream out;
    out << std::hexfloat << "a (" << a.x << "," << a.y << ") b (" << b.x << "," << b.y
        << ") r " << r << " distance " << distance(a, b);
    first = out.str();
  }
};

TEST(Within, MatchesDistanceComparisonAtEveryScale) {
  // Pairs drawn at scales 2^-330 .. 2^300, each tested against thresholds
  // a few ulps either side of its own distance: where the squared test
  // would go wrong first if its guard band were too narrow.
  Rng rng{8198};
  WithinCheck check;
  for (int e = -330; e <= 300; e += 5) {
    const double scale = std::ldexp(1.0, e);
    for (int i = 0; i < 300; ++i) {
      const Vec2 a{rng.uniform(-1.0, 1.0) * scale, rng.uniform(-1.0, 1.0) * scale};
      const Vec2 b{rng.uniform(-1.0, 1.0) * scale, rng.uniform(-1.0, 1.0) * scale};
      const double d = distance(a, b);
      for (int k = -8; k <= 8; ++k) check(a, b, d * (1.0 + k * std::ldexp(1.0, -52)));
      for (const double r : {d, std::nextafter(d, kInf), std::nextafter(d, -kInf),
                             d * 0.5, d * 2.0}) {
        check(a, b, r);
        check(b, a, r);
      }
    }
  }
  EXPECT_EQ(check.mismatches, 0u) << "of " << check.cases << ", first: " << check.first;
  // Both answers occur, so the comparison proves something either way.
  EXPECT_GT(check.inside, 0u);
  EXPECT_LT(check.inside, check.cases);
}

TEST(Within, SpecialThresholdsAndDifferences) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const double thresholds[] = {0.0,
                               -0.0,
                               -1.0,
                               -kInf,
                               kInf,
                               kNan,
                               kTiny,
                               kMax,
                               1e-100,
                               std::nextafter(1e-100, 0.0),
                               std::nextafter(1e-100, kInf),
                               1e100,
                               std::nextafter(1e100, 0.0),
                               std::nextafter(1e100, kInf),
                               1e-160,
                               1e160,
                               5.0,
                               1.0};
  const std::pair<Vec2, Vec2> pairs[] = {
      {{0, 0}, {0, 0}},                // zero distance
      {{-0.0, 0.0}, {0.0, -0.0}},      // signed zeros
      {{3, 4}, {0, 0}},                // distance exactly 5
      {{1, 0}, {0, 0}},                // distance exactly 1
      {{1e-200, 0}, {0, 0}},           // square underflows to zero
      {{1e-160, 1e-160}, {0, 0}},      // square subnormal
      {{1e-100, 0}, {0, 0}},           // distance exactly the lower edge
      {{1e100, 0}, {0, 0}},            // distance exactly the upper edge
      {{1e160, 0}, {0, 0}},            // square overflows
      {{kMax, 0}, {-kMax, 0}},         // difference overflows
      {{kInf, 0}, {0, 0}},             // infinite difference
      {{kInf, kNan}, {0, 0}},          // hypot(inf, NaN) is inf
      {{kNan, 0}, {0, 0}},             // NaN difference
      {{kTiny, kTiny}, {0, 0}},        // subnormal difference
      {{0.1, 0.2}, {0.3, -0.4}},       // ordinary, inexact
  };
  WithinCheck check;
  for (const auto& [a, b] : pairs) {
    for (const double r : thresholds) {
      check(a, b, r);
      check(b, a, r);
    }
    // And thresholds at the pair's own distance.
    const double d = distance(a, b);
    for (const double r : {d, std::nextafter(d, kInf), std::nextafter(d, -kInf)}) {
      check(a, b, r);
    }
  }
  EXPECT_EQ(check.mismatches, 0u) << "of " << check.cases << ", first: " << check.first;
  EXPECT_TRUE(within({3, 4}, {0, 0}, 5.0));
  EXPECT_FALSE(within({3, 4}, {0, 0}, std::nextafter(5.0, 0.0)));
  EXPECT_TRUE(within({0, 0}, {0, 0}, 0.0));
  EXPECT_FALSE(within({0, 0}, {0, 0}, kNan));
}

TEST(GridTraversal, VisitsStartAndEndCells) {
  std::vector<std::pair<std::int64_t, std::int64_t>> cells;
  traverse_grid({0.5, 0.5}, {3.5, 0.5}, 1.0, [&](std::int64_t x, std::int64_t y) {
    cells.emplace_back(x, y);
    return true;
  });
  ASSERT_FALSE(cells.empty());
  EXPECT_EQ(cells.front(), (std::pair<std::int64_t, std::int64_t>{0, 0}));
  EXPECT_EQ(cells.back(), (std::pair<std::int64_t, std::int64_t>{3, 0}));
  EXPECT_EQ(cells.size(), 4u);
}

TEST(GridTraversal, DiagonalVisitsContiguousCells) {
  std::vector<std::pair<std::int64_t, std::int64_t>> cells;
  traverse_grid({0.1, 0.1}, {2.9, 2.9}, 1.0, [&](std::int64_t x, std::int64_t y) {
    cells.emplace_back(x, y);
    return true;
  });
  // Each step moves one cell in x or y.
  for (std::size_t i = 1; i < cells.size(); ++i) {
    const auto dx = std::abs(cells[i].first - cells[i - 1].first);
    const auto dy = std::abs(cells[i].second - cells[i - 1].second);
    EXPECT_EQ(dx + dy, 1);
  }
  EXPECT_EQ(cells.front(), (std::pair<std::int64_t, std::int64_t>{0, 0}));
  EXPECT_EQ(cells.back(), (std::pair<std::int64_t, std::int64_t>{2, 2}));
}

TEST(GridTraversal, EarlyStop) {
  int visited = 0;
  traverse_grid({0.5, 0.5}, {10.5, 0.5}, 1.0, [&](std::int64_t, std::int64_t) {
    ++visited;
    return visited < 3;
  });
  EXPECT_EQ(visited, 3);
}

TEST(GridTraversal, SingleCell) {
  int visited = 0;
  traverse_grid({0.2, 0.2}, {0.8, 0.8}, 1.0, [&](std::int64_t x, std::int64_t y) {
    ++visited;
    EXPECT_EQ(x, 0);
    EXPECT_EQ(y, 0);
    return true;
  });
  EXPECT_EQ(visited, 1);
}

TEST(GridTraversal, NegativeCoordinates) {
  std::vector<std::pair<std::int64_t, std::int64_t>> cells;
  traverse_grid({-1.5, -0.5}, {1.5, -0.5}, 1.0, [&](std::int64_t x, std::int64_t y) {
    cells.emplace_back(x, y);
    return true;
  });
  EXPECT_EQ(cells.front(), (std::pair<std::int64_t, std::int64_t>{-2, -1}));
  EXPECT_EQ(cells.back(), (std::pair<std::int64_t, std::int64_t>{1, -1}));
}

using Cell = std::pair<std::int64_t, std::int64_t>;

std::int64_t cell_of(double v, double cell) {
  return static_cast<std::int64_t>(std::floor(v / cell));
}

/// Most cells a walk from a's cell to b's cell can visit without passing
/// b's cell on either axis: |dcx| + |dcy| + 1.
std::size_t walk_bound(Vec2 a, Vec2 b, double cell) {
  return static_cast<std::size_t>(std::abs(cell_of(b.x, cell) - cell_of(a.x, cell)) +
                                  std::abs(cell_of(b.y, cell) - cell_of(a.y, cell)) + 1);
}

/// The walk as it was before the exact stop: it returned only at b's cell
/// or behind a safety net a million cells out. Capped at `max_visits`.
std::vector<Cell> reference_walk(Vec2 a, Vec2 b, double cell, std::size_t max_visits) {
  std::int64_t cx = cell_of(a.x, cell), cy = cell_of(a.y, cell);
  const std::int64_t ex = cell_of(b.x, cell), ey = cell_of(b.y, cell);
  const Vec2 d = b - a;
  const int step_x = d.x > 0 ? 1 : (d.x < 0 ? -1 : 0);
  const int step_y = d.y > 0 ? 1 : (d.y < 0 ? -1 : 0);
  auto boundary = [cell](std::int64_t c, int step) {
    return (step > 0 ? static_cast<double>(c + 1) : static_cast<double>(c)) * cell;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double t_max_x = step_x != 0 ? (boundary(cx, step_x) - a.x) / d.x : kInf;
  double t_max_y = step_y != 0 ? (boundary(cy, step_y) - a.y) / d.y : kInf;
  const double t_delta_x = step_x != 0 ? cell / std::abs(d.x) : kInf;
  const double t_delta_y = step_y != 0 ? cell / std::abs(d.y) : kInf;

  std::vector<Cell> out;
  while (out.size() < max_visits) {
    out.emplace_back(cx, cy);
    if (cx == ex && cy == ey) break;
    if (t_max_x < t_max_y) {
      if (step_x == 0) break;
      cx += step_x;
      t_max_x += t_delta_x;
    } else {
      if (step_y == 0) break;
      cy += step_y;
      t_max_y += t_delta_y;
    }
  }
  return out;
}

/// traverse_grid's cells, cut off one visit past walk_bound so that a
/// runaway walk fails fast instead of visiting a million cells.
std::vector<Cell> walk(Vec2 a, Vec2 b, double cell) {
  const std::size_t bound = walk_bound(a, b, cell);
  std::vector<Cell> cells;
  traverse_grid(a, b, cell, [&](std::int64_t x, std::int64_t y) {
    cells.emplace_back(x, y);
    return cells.size() <= bound;
  });
  return cells;
}

/// Whether p lies in the closed box of a cell, with slack for rounding.
bool in_closed_cell(Vec2 p, Cell c, double cell) {
  constexpr double kSlack = 1e-6;
  return p.x >= static_cast<double>(c.first) * cell - kSlack &&
         p.x <= static_cast<double>(c.first + 1) * cell + kSlack &&
         p.y >= static_cast<double>(c.second) * cell - kSlack &&
         p.y <= static_cast<double>(c.second + 1) * cell + kSlack;
}

TEST(GridTraversal, StopsAtACornerEndpoint) {
  // Two route legs seen in soak sessions. Each ends on a 10 m cell corner
  // with b's cell diagonally past the segment: both axis crossings tie at
  // t = 1 and the tie steps y off b's row, so a walk that waits for b's
  // cell never ends.
  const std::pair<Vec2, Vec2> legs[] = {{{258, 314}, {270, 310}}, {{42, 94}, {50, 50}}};
  for (const auto& [a, b] : legs) {
    const std::vector<Cell> cells = walk(a, b, 10.0);
    const Cell start{cell_of(a.x, 10.0), cell_of(a.y, 10.0)};
    const Cell end{cell_of(b.x, 10.0), cell_of(b.y, 10.0)};
    ASSERT_FALSE(cells.empty());
    EXPECT_EQ(cells.front(), start);
    EXPECT_LE(cells.size(), walk_bound(a, b, 10.0))
        << "(" << a.x << "," << a.y << ")->(" << b.x << "," << b.y << ")";
    for (const Cell& c : cells) {
      EXPECT_GE(c.first, std::min(start.first, end.first));
      EXPECT_LE(c.first, std::max(start.first, end.first));
      EXPECT_GE(c.second, std::min(start.second, end.second));
      EXPECT_LE(c.second, std::max(start.second, end.second));
    }
    // The last visited cell holds the corner on its closed border.
    EXPECT_TRUE(in_closed_cell(b, cells.back(), 10.0));
  }
}

TEST(GridTraversal, MatchesTheOldWalkUpToTheEnd) {
  // The exact stop may only cut the old walk at its first cell past b's
  // cell on either axis. Half the segments have endpoints snapped to the
  // corners and edges of the 10 m lattice (where the t = 1 ties live),
  // half are free; every point of each segment must lie in a visited
  // closed cell.
  constexpr double kCell = 10.0;
  Rng rng{20261018};
  auto free_point = [&] { return Vec2{rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0)}; };
  auto snapped_point = [&] {
    Vec2 p = free_point();
    const std::uint64_t mode = rng.next_below(4);  // corner, x edge, y edge, free
    if (mode == 0 || mode == 1) p.x = std::round(p.x / kCell) * kCell;
    if (mode == 0 || mode == 2) p.y = std::round(p.y / kCell) * kCell;
    return p;
  };
  std::size_t cut = 0;
  constexpr int kSegments = 12000;
  for (int i = 0; i < kSegments; ++i) {
    const bool snapped = i % 2 == 0;
    const Vec2 a = snapped ? snapped_point() : free_point();
    Vec2 b = a;
    if (i % 97 != 0) {  // keep a few zero-length segments
      b = snapped ? snapped_point() : free_point();
      if (i % 5 == 0) b.x = a.x;  // axis-aligned
      if (i % 7 == 0) b.y = a.y;
      if (snapped && i % 3 == 0) {  // short legs, as between route waypoints
        b = {std::round((a.x + rng.uniform(-40.0, 40.0)) / kCell) * kCell,
             std::round((a.y + rng.uniform(-40.0, 40.0)) / kCell) * kCell};
      }
    }
    const std::size_t bound = walk_bound(a, b, kCell);
    std::vector<Cell> expected = reference_walk(a, b, kCell, bound + 2);
    const std::int64_t ex = cell_of(b.x, kCell), ey = cell_of(b.y, kCell);
    const int sx = b.x > a.x ? 1 : (b.x < a.x ? -1 : 0);
    const int sy = b.y > a.y ? 1 : (b.y < a.y ? -1 : 0);
    const auto past = std::find_if(expected.begin(), expected.end(), [&](const Cell& c) {
      return (c.first - ex) * sx > 0 || (c.second - ey) * sy > 0;
    });
    if (past != expected.end()) {
      ++cut;
      expected.erase(past, expected.end());
    } else {
      ASSERT_EQ(expected.back(), (Cell{ex, ey})) << "reference walk " << i << " hit its cap";
    }
    const std::vector<Cell> cells = walk(a, b, kCell);
    ASSERT_EQ(cells, expected) << "segment " << i << " (" << a.x << "," << a.y << ")->("
                               << b.x << "," << b.y << ")";
    ASSERT_LE(cells.size(), bound);
    for (int k = 0; k <= 16; ++k) {
      const Vec2 p = a + (b - a) * (k / 16.0);
      ASSERT_TRUE(std::any_of(cells.begin(), cells.end(),
                              [&](const Cell& c) { return in_closed_cell(p, c, kCell); }))
          << "segment " << i << " point " << k << " lies in no visited cell";
    }
  }
  // Both kinds of walk must occur, or the comparison proves little.
  EXPECT_GT(cut, 0u);
  EXPECT_LT(cut, static_cast<std::size_t>(kSegments));
}

}  // namespace
}  // namespace agrarsec::core
