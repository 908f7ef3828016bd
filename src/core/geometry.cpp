#include "core/geometry.h"

#include <algorithm>
#include <numbers>

namespace agrarsec::core {

double distance(Vec2 a, Vec2 b) { return (a - b).norm(); }

double distance(const Vec3& a, const Vec3& b) { return (a - b).norm(); }

double wrap_angle(double radians) {
  constexpr double two_pi = 2.0 * std::numbers::pi;
  double a = std::fmod(radians, two_pi);
  if (a <= -std::numbers::pi) a += two_pi;
  if (a > std::numbers::pi) a -= two_pi;
  return a;
}

double angular_distance(double a, double b) { return std::abs(wrap_angle(a - b)); }

Vec2 Aabb::clamp(Vec2 p) const {
  return {std::clamp(p.x, min.x, max.x), std::clamp(p.y, min.y, max.y)};
}

double point_segment_distance(Vec2 p, Vec2 a, Vec2 b) {
  return distance(p, closest_point_on_segment(p, a, b));
}

bool segment_intersects_circle(Vec2 a, Vec2 b, const Circle& c) {
  return point_segment_distance(c.center, a, b) < c.radius;
}

}  // namespace agrarsec::core
