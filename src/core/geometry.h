// 2D/2.5D geometry used by the worksite simulator and the sensor
// ray-casting models. The worksite is a plane with a height field; an
// elevated drone viewpoint is modelled by 3D line-of-sight against
// obstacle heights (which is exactly the occlusion property Figure 2 of
// the paper is about).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace agrarsec::core {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr bool operator==(const Vec2&) const = default;

  [[nodiscard]] double norm() const { return std::hypot(x, y); }
  [[nodiscard]] double norm_sq() const { return x * x + y * y; }
  [[nodiscard]] double dot(Vec2 o) const { return x * o.x + y * o.y; }
  [[nodiscard]] double cross(Vec2 o) const { return x * o.y - y * o.x; }
  [[nodiscard]] Vec2 normalized() const {
    const double n = norm();
    return n > 0.0 ? Vec2{x / n, y / n} : Vec2{};
  }
  [[nodiscard]] Vec2 rotated(double radians) const {
    const double c = std::cos(radians), s = std::sin(radians);
    return {x * c - y * s, x * s + y * c};
  }
};

/// 3D point: planar position + height above terrain datum (metres).
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr Vec3 operator+(Vec3 o) const { return {x + o.x, y + o.y, z + o.z}; }
  constexpr Vec3 operator-(Vec3 o) const { return {x - o.x, y - o.y, z - o.z}; }
  constexpr Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }

  [[nodiscard]] double norm() const { return std::sqrt(x * x + y * y + z * z); }
  [[nodiscard]] Vec2 xy() const { return {x, y}; }
};

[[nodiscard]] double distance(Vec2 a, Vec2 b);
[[nodiscard]] double distance(const Vec3& a, const Vec3& b);

/// Wraps an angle to (-pi, pi].
[[nodiscard]] double wrap_angle(double radians);

/// Smallest absolute angular difference between two headings.
[[nodiscard]] double angular_distance(double a, double b);

/// Axis-aligned bounding box.
struct Aabb {
  Vec2 min;
  Vec2 max;

  [[nodiscard]] bool contains(Vec2 p) const {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
  }
  [[nodiscard]] double width() const { return max.x - min.x; }
  [[nodiscard]] double height() const { return max.y - min.y; }
  [[nodiscard]] Vec2 clamp(Vec2 p) const;
};

/// Circle obstacle footprint (tree stems, boulders).
struct Circle {
  Vec2 center;
  double radius = 0.0;

  [[nodiscard]] bool contains(Vec2 p) const {
    return distance(center, p) <= radius;
  }
};

/// True iff segment [a,b] intersects the circle (strictly closer than the
/// radius at some point of the segment).
[[nodiscard]] bool segment_intersects_circle(Vec2 a, Vec2 b, const Circle& c);

/// The point of segment [a,b] closest to p: a when the segment has zero
/// length, else a + ab * clamp(t, 0, 1) for the projection parameter t.
/// The one closest-point formula; point_segment_distance measures to it.
[[nodiscard]] inline Vec2 closest_point_on_segment(Vec2 p, Vec2 a, Vec2 b) {
  const Vec2 ab = b - a;
  const double len_sq = ab.norm_sq();
  if (len_sq == 0.0) return a;
  const double t = std::clamp((p - a).dot(ab) / len_sq, 0.0, 1.0);
  return a + ab * t;
}

/// Distance from point p to segment [a,b]:
/// distance(p, closest_point_on_segment(p, a, b)).
[[nodiscard]] double point_segment_distance(Vec2 p, Vec2 a, Vec2 b);

/// Exactly distance(a, b) <= r, for every input, NaN and infinities
/// included, without std::hypot away from the boundary. For r in
/// [1e-100, 1e100] the squared distance |a - b|^2 lands within a few ulps
/// of its true value, or overflows to infinity, or underflows far below
/// r^2; so outside the guard band r^2 * (1 +- 1e-9) no rounding of either
/// side can flip the answer. Inside the band, for r outside that range
/// (zero, negative, subnormal, huge, infinite, NaN) and for a NaN square,
/// it asks distance() itself (DESIGN.md §26).
[[nodiscard]] inline bool within(Vec2 a, Vec2 b, double r) {
  if (r >= 1e-100 && r <= 1e100) {
    const double d2 = (a - b).norm_sq();
    const double r2 = r * r;
    if (d2 < r2 * (1.0 - 1e-9)) return true;
    if (d2 > r2 * (1.0 + 1e-9)) return false;
  }
  return distance(a, b) <= r;
}

/// Visits the grid cells of size `cell` crossed by segment [a,b] (2D DDA,
/// Amanatides & Woo), in order from a's cell: visit(cx, cy) with
/// cx = floor(x / cell), returning false to stop early. The walk ends at
/// b's cell, or just before it when b lies on a cell corner: both axis
/// crossings then tie at t = 1, the tie steps y, and the walk can leave
/// b's row or column without entering b's cell. Steps are monotone, so a
/// walk past b's cell on either axis returns there without a visit; its
/// last visited cell holds b on its closed border. Either way the walk
/// visits at most |dcx| + |dcy| + 1 cells, all inside the rectangle
/// spanned by a's and b's cells, and every point of [a,b] lies in a
/// visited closed cell, up to rounding (DESIGN.md §24).
template <typename Visit>
void traverse_grid(Vec2 a, Vec2 b, double cell, Visit&& visit) {
  const auto cell_of = [cell](double v) {
    return static_cast<std::int64_t>(std::floor(v / cell));
  };
  std::int64_t cx = cell_of(a.x), cy = cell_of(a.y);
  const std::int64_t ex = cell_of(b.x), ey = cell_of(b.y);

  const Vec2 d = b - a;
  const int step_x = d.x > 0 ? 1 : (d.x < 0 ? -1 : 0);
  const int step_y = d.y > 0 ? 1 : (d.y < 0 ? -1 : 0);

  const auto boundary = [cell](std::int64_t c, int step) {
    return (step > 0 ? static_cast<double>(c + 1) : static_cast<double>(c)) * cell;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double t_max_x = step_x != 0 ? (boundary(cx, step_x) - a.x) / d.x : kInf;
  double t_max_y = step_y != 0 ? (boundary(cy, step_y) - a.y) / d.y : kInf;
  const double t_delta_x = step_x != 0 ? cell / std::abs(d.x) : kInf;
  const double t_delta_y = step_y != 0 ? cell / std::abs(d.y) : kInf;

  while (true) {
    if (!visit(cx, cy)) return;
    if (cx == ex && cy == ey) return;
    if (t_max_x < t_max_y) {
      if (step_x == 0) return;  // degenerate: cannot make progress
      cx += step_x;
      t_max_x += t_delta_x;
    } else {
      if (step_y == 0) return;
      cy += step_y;
      t_max_y += t_delta_y;
    }
    if ((cx - ex) * step_x > 0 || (cy - ey) * step_y > 0) return;  // past b's cell
  }
}

}  // namespace agrarsec::core
