#include "sim/terrain.h"

#include <algorithm>
#include <cmath>

namespace agrarsec::sim {

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
  scatter(ObstacleKind::kTree, config.trees_per_hectare, config.tree_radius_mean,
          config.tree_height_mean);
  scatter(ObstacleKind::kBoulder, config.boulders_per_hectare,
          config.boulder_radius_mean, config.boulder_height_mean);
  scatter(ObstacleKind::kBrush, config.brush_per_hectare, config.brush_radius_mean,
          config.brush_height_mean);

  std::vector<Hill> hills;
  for (std::size_t i = 0; i < config.hill_count; ++i) {
    Hill h;
    h.center = {rng.uniform(config.bounds.min.x, config.bounds.max.x),
                rng.uniform(config.bounds.min.y, config.bounds.max.y)};
    h.height_m = rng.uniform(0.5, config.hill_height_max);
    h.radius_m = std::max(10.0, rng.normal(config.hill_radius_mean,
                                           config.hill_radius_mean * 0.3));
    hills.push_back(h);
  }

  return Terrain{config.bounds, std::move(obstacles), std::move(hills)};
}

std::size_t Terrain::cell_slot(std::int64_t cx, std::int64_t cy) const {
  cx = std::clamp<std::int64_t>(cx - min_cx_, 0, width_ - 1);
  cy = std::clamp<std::int64_t>(cy - min_cy_, 0, height_ - 1);
  return static_cast<std::size_t>(cy) * static_cast<std::size_t>(width_) +
         static_cast<std::size_t>(cx);
}

void Terrain::build_index() {
  const auto cell_of = [this](double v) {
    return static_cast<std::int64_t>(std::floor(v / cell_size_));
  };

  // Grid extent: the worksite bounds, widened to any footprint that pokes
  // past them, so every obstacle has an in-range home cell.
  min_cx_ = cell_of(bounds_.min.x);
  min_cy_ = cell_of(bounds_.min.y);
  std::int64_t max_cx = cell_of(bounds_.max.x);
  std::int64_t max_cy = cell_of(bounds_.max.y);
  for (const Obstacle& o : obstacles_) {
    min_cx_ = std::min(min_cx_, cell_of(o.footprint.center.x - o.footprint.radius));
    min_cy_ = std::min(min_cy_, cell_of(o.footprint.center.y - o.footprint.radius));
    max_cx = std::max(max_cx, cell_of(o.footprint.center.x + o.footprint.radius));
    max_cy = std::max(max_cy, cell_of(o.footprint.center.y + o.footprint.radius));
  }
  width_ = max_cx - min_cx_ + 1;
  height_ = max_cy - min_cy_ + 1;

  const std::size_t cell_count =
      static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  cell_start_.assign(cell_count + 1, 0);

  // Two-pass counting sort into the CSR arrays. Iterating obstacles in
  // index order in the fill pass leaves each cell's list ascending, which
  // obstacles_near_segment relies on for its ordered output.
  const auto each_cell = [&](const Obstacle& o, const auto& fn) {
    const std::int64_t lo_x = cell_of(o.footprint.center.x - o.footprint.radius);
    const std::int64_t hi_x = cell_of(o.footprint.center.x + o.footprint.radius);
    const std::int64_t lo_y = cell_of(o.footprint.center.y - o.footprint.radius);
    const std::int64_t hi_y = cell_of(o.footprint.center.y + o.footprint.radius);
    for (std::int64_t cy = lo_y; cy <= hi_y; ++cy) {
      for (std::int64_t cx = lo_x; cx <= hi_x; ++cx) {
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

  visit_stamp_.assign(obstacles_.size(), 0);
  stamp_gen_ = 0;
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
/// decided by core::within from the same closest point.
bool footprint_meets(const core::Circle& footprint, core::Vec2 a, core::Vec2 b,
                     double margin) {
  return core::within(footprint.center,
                      core::closest_point_on_segment(footprint.center, a, b),
                      footprint.radius + margin);
}

}  // namespace

void Terrain::collect_segment_candidates(core::Vec2 a, core::Vec2 b,
                                         double margin) const {
  // Expand the traversal by visiting the 3x3 neighbourhood of each crossed
  // cell so obstacles whose footprints straddle cell borders are found.
  // Generation stamps dedup obstacles seen from several cells, so each is
  // tested once; only the footprints that meet the segment are kept.
  const std::uint64_t gen = ++stamp_gen_;
  candidate_scratch_.clear();
  core::traverse_grid(a, b, cell_size_, [&](std::int64_t cx, std::int64_t cy) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      for (std::int64_t dx = -1; dx <= 1; ++dx) {
        const std::size_t s = cell_slot(cx + dx, cy + dy);
        for (std::uint32_t k = cell_start_[s]; k < cell_start_[s + 1]; ++k) {
          const std::uint32_t i = cell_items_[k];
          if (visit_stamp_[i] == gen) continue;
          visit_stamp_[i] = gen;
          if (footprint_meets(obstacles_[i].footprint, a, b, margin)) {
            candidate_scratch_.push_back(i);
          }
        }
      }
    }
    return true;
  });

  // Ascending index order, matching the old std::set-based collection
  // (occlusion attribution returns the lowest-index blocker).
  std::sort(candidate_scratch_.begin(), candidate_scratch_.end());
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
  bool hit = false;
  core::traverse_grid(a, b, cell_size_, [&](std::int64_t cx, std::int64_t cy) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      for (std::int64_t dx = -1; dx <= 1; ++dx) {
        const std::size_t s = cell_slot(cx + dx, cy + dy);
        for (std::uint32_t k = cell_start_[s]; k < cell_start_[s + 1]; ++k) {
          if (footprint_meets(obstacles_[cell_items_[k]].footprint, a, b, margin)) {
            hit = true;
            return false;  // stop the traversal on the first blocker
          }
        }
      }
    }
    return true;
  });
  return hit;
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
  // Candidates come straight from the stamp walk: the footprints the ray
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
