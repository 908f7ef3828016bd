#include "sim/terrain.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace agrarsec::sim {

namespace {
// Generation parameters every stand shares; ForestConfig sets the rest.
constexpr double kTreeRadiusMeanM = 0.18;  ///< stem radius
constexpr double kTreeHeightMeanM = 16.0;
constexpr double kBrushRadiusMeanM = 0.9;
constexpr double kHillHeightMaxM = 8.0;
constexpr double kHillRadiusMeanM = 60.0;  ///< Gaussian sigma
}  // namespace

Terrain::Terrain(core::Aabb bounds, std::vector<Obstacle> obstacles,
                 std::vector<Hill> hills)
    : bounds_(bounds), obstacles_(std::move(obstacles)), hills_(std::move(hills)) {
  build_index();
}

Terrain Terrain::generate(const ForestConfig& config, core::Rng& rng) {
  const double area_ha =
      config.bounds.width() * config.bounds.height() / 10000.0;

  std::vector<Obstacle> obstacles;
  auto scatter = [&](ObstacleKind kind, double per_ha, double radius_mean,
                     double height_mean) {
    const auto count = rng.poisson(per_ha * area_ha);
    for (std::uint64_t i = 0; i < count; ++i) {
      Obstacle o;
      o.kind = kind;
      o.footprint.center = {rng.uniform(config.bounds.min.x, config.bounds.max.x),
                            rng.uniform(config.bounds.min.y, config.bounds.max.y)};
      o.footprint.radius = std::max(0.05, rng.normal(radius_mean, radius_mean * 0.3));
      o.height_m = std::max(0.3, rng.normal(height_mean, height_mean * 0.25));
      obstacles.push_back(o);
    }
  };
  scatter(ObstacleKind::kTree, config.trees_per_hectare, kTreeRadiusMeanM,
          kTreeHeightMeanM);
  scatter(ObstacleKind::kBoulder, config.boulders_per_hectare,
          config.boulder_radius_mean, config.boulder_height_mean);
  scatter(ObstacleKind::kBrush, config.brush_per_hectare, kBrushRadiusMeanM,
          config.brush_height_mean);

  std::vector<Hill> hills;
  for (std::size_t i = 0; i < config.hill_count; ++i) {
    Hill h;
    h.center = {rng.uniform(config.bounds.min.x, config.bounds.max.x),
                rng.uniform(config.bounds.min.y, config.bounds.max.y)};
    h.height_m = rng.uniform(0.5, kHillHeightMaxM);
    h.radius_m = std::max(10.0, rng.normal(kHillRadiusMeanM, kHillRadiusMeanM * 0.3));
    hills.push_back(h);
  }

  return Terrain{config.bounds, std::move(obstacles), std::move(hills)};
}

namespace {

/// How far past its bounding box the index lists a footprint. It covers
/// the rounding of the grid walk, of the distance predicate and of the
/// band's and the index's cell keys, which stays below 2e-9 m for
/// coordinates within 1e6 m of the origin and segments up to 1e4 m long
/// (DESIGN.md §29).
constexpr double kRoundingCover = 1e-6;

}  // namespace

std::size_t Terrain::cell_slot(std::int64_t cx, std::int64_t cy) const {
  return static_cast<std::size_t>(cy - min_cy_) * static_cast<std::size_t>(width_) +
         static_cast<std::size_t>(cx - min_cx_);
}

void Terrain::build_index() {
  const auto cell_of = [this](double v) {
    return static_cast<std::int64_t>(std::floor(v / cell_size_));
  };
  // The cells a footprint is listed in: those its bounding box, widened by
  // the rounding cover, touches.
  struct Span {
    std::int64_t lo_x, hi_x, lo_y, hi_y;
  };
  const auto span = [&](const Obstacle& o) {
    const core::Vec2 c = o.footprint.center;
    const double reach = o.footprint.radius + kRoundingCover;
    return Span{cell_of(c.x - reach), cell_of(c.x + reach), cell_of(c.y - reach),
                cell_of(c.y + reach)};
  };

  // Grid extent: the worksite bounds, widened to every footprint's span,
  // so every listing is in range.
  min_cx_ = cell_of(bounds_.min.x);
  min_cy_ = cell_of(bounds_.min.y);
  std::int64_t max_cx = cell_of(bounds_.max.x);
  std::int64_t max_cy = cell_of(bounds_.max.y);
  for (const Obstacle& o : obstacles_) {
    const Span s = span(o);
    min_cx_ = std::min(min_cx_, s.lo_x);
    min_cy_ = std::min(min_cy_, s.lo_y);
    max_cx = std::max(max_cx, s.hi_x);
    max_cy = std::max(max_cy, s.hi_y);
  }
  width_ = max_cx - min_cx_ + 1;
  height_ = max_cy - min_cy_ + 1;

  const std::size_t cell_count =
      static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  cell_start_.assign(cell_count + 1, 0);

  // Two-pass counting sort into the CSR arrays. Iterating obstacles in
  // index order in the fill pass leaves each cell's list ascending.
  const auto each_cell = [&](const Obstacle& o, const auto& fn) {
    const Span s = span(o);
    for (std::int64_t cy = s.lo_y; cy <= s.hi_y; ++cy) {
      for (std::int64_t cx = s.lo_x; cx <= s.hi_x; ++cx) {
        fn(cell_slot(cx, cy));
      }
    }
  };
  for (const Obstacle& o : obstacles_) {
    each_cell(o, [&](std::size_t s) { ++cell_start_[s + 1]; });
  }
  for (std::size_t s = 1; s <= cell_count; ++s) cell_start_[s] += cell_start_[s - 1];
  cell_items_.resize(cell_start_[cell_count]);
  std::vector<std::uint32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (std::uint32_t i = 0; i < obstacles_.size(); ++i) {
    each_cell(obstacles_[i], [&](std::size_t s) { cell_items_[cursor[s]++] = i; });
  }
}

double Terrain::ground_height(core::Vec2 p) const {
  double h = 0.0;
  for (const Hill& hill : hills_) {
    const double d2 = (p - hill.center).norm_sq();
    h += hill.height_m * std::exp(-d2 / (2.0 * hill.radius_m * hill.radius_m));
  }
  return h;
}

double Terrain::gradient_bound(const core::Aabb& rect) const {
  double bound = 0.0;
  for (const Hill& hill : hills_) {
    const core::Vec2 c = hill.center;
    const double s = std::abs(hill.radius_m);
    // Nearest and farthest points of the rectangle from the hill centre.
    const double near_x = std::max({rect.min.x - c.x, 0.0, c.x - rect.max.x});
    const double near_y = std::max({rect.min.y - c.y, 0.0, c.y - rect.max.y});
    const double far_x = std::max(std::abs(c.x - rect.min.x), std::abs(c.x - rect.max.x));
    const double far_y = std::max(std::abs(c.y - rect.min.y), std::abs(c.y - rect.max.y));
    const double d =
        std::min(std::max(s, std::hypot(near_x, near_y)), std::hypot(far_x, far_y));
    bound += std::abs(hill.height_m) / (s * s) * d * std::exp(-d * d / (2.0 * s * s));
  }
  return bound;
}

namespace {

/// The segment queries' one predicate: the footprint comes within `margin`
/// of [a, b], i.e. point_segment_distance(centre, a, b) <= radius + margin,
/// decided by core::within from the same closest point. Inline, so the
/// walk's loop keeps the segment's terms in registers instead of calling
/// out for every footprint (DESIGN.md §29).
inline bool footprint_meets(const core::Circle& footprint, core::Vec2 a, core::Vec2 b,
                            double margin) {
  return core::within(footprint.center,
                      core::closest_point_on_segment(footprint.center, a, b),
                      footprint.radius + margin);
}

}  // namespace

template <typename Visit>
bool Terrain::walk_band(core::Vec2 a, core::Vec2 b, double margin, Visit&& visit) const {
  const auto cell = [&](std::int64_t cx, std::int64_t cy) {
    if (cx < min_cx_ || cx >= min_cx_ + width_ || cy < min_cy_ || cy >= min_cy_ + height_) {
      return true;
    }
    const std::size_t s = cell_slot(cx, cy);
    for (std::uint32_t k = cell_start_[s]; k < cell_start_[s + 1]; ++k) {
      if (!visit(cell_items_[k])) return false;
    }
    return true;
  };
  bool go = true;
  if (!(margin > 0.0)) {
    core::traverse_grid(a, b, cell_size_, [&](std::int64_t cx, std::int64_t cy) {
      return go = cell(cx, cy);
    });
    return go;
  }

  // Cells meeting [lo, hi] on one axis, cut to the grid's [first, first +
  // count): lo > hi when none does. Clamped before the cast, so a huge or
  // infinite margin stays in range.
  const auto axis = [this](double lo, double hi, std::int64_t first, std::int64_t count) {
    const auto first_d = static_cast<double>(first);
    const auto last_d = static_cast<double>(first + count - 1);
    return std::pair{
        static_cast<std::int64_t>(std::clamp(std::floor(lo / cell_size_), first_d, last_d + 1)),
        static_cast<std::int64_t>(std::clamp(std::floor(hi / cell_size_), first_d - 1, last_d))};
  };
  const core::Vec2 d = b - a;
  std::int64_t done_x0 = 1, done_x1 = 0, done_y0 = 1, done_y1 = 0;  // none yet
  // The cells meeting the box of the part [t0, t1], widened by the margin,
  // less those the previous part's band visited.
  const auto band = [&](double t0, double t1) {
    const core::Vec2 p = a + d * t0, q = a + d * t1;
    const auto [x0, x1] = axis(std::min(p.x, q.x) - margin, std::max(p.x, q.x) + margin,
                               min_cx_, width_);
    const auto [y0, y1] = axis(std::min(p.y, q.y) - margin, std::max(p.y, q.y) + margin,
                               min_cy_, height_);
    for (std::int64_t cy = y0; cy <= y1; ++cy) {
      const bool done_row = cy >= done_y0 && cy <= done_y1;
      for (std::int64_t cx = x0; cx <= x1; ++cx) {
        if (done_row && cx >= done_x0 && cx <= done_x1) continue;
        if (!cell(cx, cy)) return false;
      }
    }
    done_x0 = x0;
    done_x1 = x1;
    done_y0 = y0;
    done_y1 = y1;
    return true;
  };
  // Each crossed cell's part ends where the walk crosses the border into
  // the next cell, at the parameter computed for that border, clamped to
  // [0, 1]. Consecutive parts share that end, so the parts chain from 0
  // to 1 even where rounding makes the walk step early or late.
  bool first = true;
  std::int64_t px = 0, py = 0;
  double entered = 0.0;
  core::traverse_grid(a, b, cell_size_, [&](std::int64_t cx, std::int64_t cy) {
    if (!first) {
      const double t =
          cx != px ? (static_cast<double>(std::max(cx, px)) * cell_size_ - a.x) / d.x
                   : (static_cast<double>(std::max(cy, py)) * cell_size_ - a.y) / d.y;
      const double left = std::clamp(t, 0.0, 1.0);
      go = band(entered, left);
      entered = left;
    }
    first = false;
    px = cx;
    py = cy;
    return go;
  });
  return go && band(entered, 1.0);
}

void Terrain::collect_segment_candidates(core::Vec2 a, core::Vec2 b,
                                         double margin) const {
  candidate_scratch_.clear();
  walk_band(a, b, margin, [&](std::uint32_t i) {
    if (footprint_meets(obstacles_[i].footprint, a, b, margin)) {
      candidate_scratch_.push_back(i);
    }
    return true;
  });
  // Ascending index order (occlusion attribution returns the lowest-index
  // blocker); a footprint met from several cells is kept once.
  std::sort(candidate_scratch_.begin(), candidate_scratch_.end());
  candidate_scratch_.erase(std::unique(candidate_scratch_.begin(), candidate_scratch_.end()),
                           candidate_scratch_.end());
}

std::vector<const Obstacle*> Terrain::obstacles_near_segment(core::Vec2 a, core::Vec2 b,
                                                             double margin) const {
  collect_segment_candidates(a, b, margin);
  std::vector<const Obstacle*> out;
  out.reserve(candidate_scratch_.size());
  for (std::uint32_t i : candidate_scratch_) out.push_back(&obstacles_[i]);
  return out;
}

bool Terrain::segment_blocked(core::Vec2 a, core::Vec2 b, double margin) const {
  // The walk stops on the first footprint that meets the segment.
  return !walk_band(a, b, margin, [&](std::uint32_t i) {
    return !footprint_meets(obstacles_[i].footprint, a, b, margin);
  });
}

double Terrain::crest_bound(core::Vec2 a, core::Vec2 b) const {
  double bound = 0.0;
  for (const Hill& hill : hills_) {
    if (!(hill.height_m > 0.0)) continue;  // a hollow only lowers the ground
    const double d2 =
        (hill.center - core::closest_point_on_segment(hill.center, a, b)).norm_sq();
    bound += hill.height_m * std::exp(-d2 / (2.0 * hill.radius_m * hill.radius_m));
  }
  return bound;
}

Terrain::OcclusionCause Terrain::occlusion_cause(core::Vec2 from_xy, double from_agl,
                                                 core::Vec2 to_xy,
                                                 double to_agl) const {
  const double z_from = ground_height(from_xy) + from_agl;
  const double z_to = ground_height(to_xy) + to_agl;
  const double planar_len = core::distance(from_xy, to_xy);
  if (planar_len < 1e-9) return OcclusionCause::kNone;

  // Obstacle occlusion: an obstacle blocks the ray when the ray's height
  // at the crossing point is below the obstacle's top (ground + height).
  // Candidates come straight from the band walk: the footprints the ray
  // meets, in ascending index order — no per-ray result vector.
  collect_segment_candidates(from_xy, to_xy, 0.0);
  const core::Vec2 dir = (to_xy - from_xy) * (1.0 / planar_len);
  for (const std::uint32_t idx : candidate_scratch_) {
    const Obstacle& o = obstacles_[idx];
    const double t = std::clamp((o.footprint.center - from_xy).dot(dir), 0.0,
                                planar_len);
    // Skip obstacles essentially at an endpoint (the observer/target's own
    // immediate surroundings do not self-occlude).
    if (t < 0.5 || t > planar_len - 0.5) continue;
    const double ray_z = z_from + (z_to - z_from) * (t / planar_len);
    const core::Vec2 at = from_xy + dir * t;
    const double top = ground_height(at) + o.height_m;
    if (ray_z < top) {
      switch (o.kind) {
        case ObstacleKind::kTree: return OcclusionCause::kTree;
        case ObstacleKind::kBoulder: return OcclusionCause::kBoulder;
        case ObstacleKind::kBrush: return OcclusionCause::kBrush;
      }
    }
  }

  // Terrain occlusion: sample the ground along the ray — unless the ray's
  // lower endpoint already clears its crest bound, in which case no sample
  // could come within 1e-9 of the ray (the lerp stays within a few ulps of
  // [min(z), max(z)] and the samples within a few ulps of the ray, far
  // inside that margin; DESIGN.md §26).
  if (std::min(z_from, z_to) >= crest_bound(from_xy, to_xy)) {
    return OcclusionCause::kNone;
  }
  constexpr double kSample = 5.0;
  const int samples = std::max(2, static_cast<int>(planar_len / kSample));
  for (int i = 1; i < samples; ++i) {
    const double t = static_cast<double>(i) / samples;
    const core::Vec2 at = from_xy + (to_xy - from_xy) * t;
    const double ray_z = z_from + (z_to - z_from) * t;
    if (ray_z < ground_height(at) - 1e-9) return OcclusionCause::kTerrain;
  }
  return OcclusionCause::kNone;
}

}  // namespace agrarsec::sim
