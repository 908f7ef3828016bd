// Forest terrain: a smooth height field (sum of Gaussian hills) plus
// discrete obstacles (tree stems, boulders, brush). The central query is
// 3D line-of-sight, which is exactly what the paper's Figure 2 use case
// is about: terrain obstacles occlude the forwarder's ground-level view
// of people, while an elevated drone viewpoint clears them. One per-ray
// path, occlusion_cause, answers every sight-line question (DESIGN.md
// §19); a CSR obstacle grid and one band walk keep every segment query to
// the cells within its margin of the segment (DESIGN.md §29).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/geometry.h"
#include "core/rng.h"

namespace agrarsec::sim {

enum class ObstacleKind : std::uint8_t { kTree = 0, kBoulder = 1, kBrush = 2 };

struct Obstacle {
  ObstacleKind kind = ObstacleKind::kTree;
  core::Circle footprint;
  double height_m = 0.0;  ///< occluding height above local ground
};

/// A smooth hill in the height field.
struct Hill {
  core::Vec2 center;
  double height_m = 0.0;
  double radius_m = 0.0;  ///< Gaussian sigma
};

struct ForestConfig {
  core::Aabb bounds{{0, 0}, {500, 500}};
  double trees_per_hectare = 400.0;  ///< typical managed Nordic forest
  double boulders_per_hectare = 8.0;
  double boulder_radius_mean = 1.1;
  double boulder_height_mean = 1.4;
  double brush_per_hectare = 40.0;
  double brush_height_mean = 1.2;
  std::size_t hill_count = 6;
};

class Terrain {
 public:
  Terrain(core::Aabb bounds, std::vector<Obstacle> obstacles, std::vector<Hill> hills);

  /// Procedurally generates a forest stand.
  static Terrain generate(const ForestConfig& config, core::Rng& rng);

  [[nodiscard]] const core::Aabb& bounds() const { return bounds_; }
  [[nodiscard]] const std::vector<Obstacle>& obstacles() const { return obstacles_; }

  /// Ground elevation at a point.
  [[nodiscard]] double ground_height(core::Vec2 p) const;

  /// Upper bound on the ground gradient magnitude |grad ground_height| over
  /// the closed rectangle `rect`. A hill's gradient magnitude
  /// h/s^2 * d * exp(-d^2 / 2s^2) rises with the distance d from its centre
  /// up to d = s and falls after it, so over the rectangle's distance range
  /// [dmin, dmax] it peaks at clamp(s, dmin, dmax); the bound sums those
  /// peaks. NaN or infinite when a hill is degenerate (s = 0). The
  /// planner's tile slope test uses it (DESIGN.md §21); crest_bound bounds
  /// a ray's ground height the same way, hill by hill.
  [[nodiscard]] double gradient_bound(const core::Aabb& rect) const;

  /// What (if anything) blocks the 3D sight line between two points given
  /// with heights *above ground* at their planar positions. This is the
  /// one line-of-sight path: perception, ground-truth blind-step
  /// attribution and line_of_sight() all resolve sight lines through it.
  /// The first blocking obstacle in ascending obstacle-index order names
  /// the cause; terrain is checked only when no obstacle blocks. Uses the
  /// mutable query scratch, so it is not thread-safe, like every other
  /// terrain query.
  enum class OcclusionCause : std::uint8_t {
    kNone = 0,
    kTree = 1,
    kBoulder = 2,
    kBrush = 3,
    kTerrain = 4,  ///< hill crest between the endpoints
  };
  [[nodiscard]] OcclusionCause occlusion_cause(core::Vec2 from_xy, double from_agl,
                                               core::Vec2 to_xy, double to_agl) const;

  /// 3D line-of-sight between two points given with heights *above ground*
  /// at their respective planar positions. Checks both obstacle occlusion
  /// and terrain (hill) occlusion.
  [[nodiscard]] bool line_of_sight(core::Vec2 from_xy, double from_agl,
                                   core::Vec2 to_xy, double to_agl) const {
    return occlusion_cause(from_xy, from_agl, to_xy, to_agl) == OcclusionCause::kNone;
  }

  /// Obstacles whose footprint comes within `margin` of segment [a,b],
  /// at any margin, in ascending obstacle-index order: the walk and order
  /// occlusion_cause uses at margin 0.
  [[nodiscard]] std::vector<const Obstacle*> obstacles_near_segment(
      core::Vec2 a, core::Vec2 b, double margin = 0.0) const;

  /// True when any obstacle footprint comes within `margin` of segment
  /// [a,b]. Same predicate and walk as obstacles_near_segment but returns
  /// on the first hit without materialising the result — this is the
  /// planner's inner-loop query (path smoothing probes thousands of
  /// segments and only cares about clear/not-clear).
  [[nodiscard]] bool segment_blocked(core::Vec2 a, core::Vec2 b,
                                     double margin = 0.0) const;

  [[nodiscard]] std::size_t obstacle_count() const { return obstacles_.size(); }

 private:
  void build_index();
  /// The one walk of the segment queries: calls visit(i) for every
  /// obstacle i listed in an index cell within `margin` of [a, b], once
  /// per such cell, and returns false as soon as visit does. At margin 0
  /// (or below, or NaN) the cells are exactly those core::traverse_grid
  /// crosses. At a positive margin they are, for each crossed cell, the
  /// cells meeting the box of the segment's part in it widened by
  /// `margin`: the part runs between the computed parameters of the
  /// borders the walk crossed into and out of the cell, so the parts
  /// chain from a to b whatever the walk's rounding. A cell the previous
  /// part's band visited is skipped; cells off the grid list nothing.
  /// Every footprint the distance predicate accepts is listed in a
  /// visited cell (DESIGN.md §29).
  template <typename Visit>
  bool walk_band(core::Vec2 a, core::Vec2 b, double margin, Visit&& visit) const;
  /// The obstacles whose footprint comes within `margin` of [a, b], from
  /// walk_band, into candidate_scratch_, sorted ascending without
  /// duplicates (a footprint listed in several visited cells is met once
  /// per cell). The shared core of obstacles_near_segment and
  /// occlusion_cause (margin 0).
  void collect_segment_candidates(core::Vec2 a, core::Vec2 b, double margin) const;
  /// Upper bound on ground_height along segment [a,b]: the sum, over hills
  /// of positive height h, of h * exp(-d^2 / 2s^2) at the squared distance
  /// d^2 from the hill's centre to its closest point on the segment. Each
  /// term is the hill's largest contribution anywhere on the segment, so
  /// a ray whose lower endpoint clears the bound skips terrain sampling
  /// exactly (DESIGN.md §26). A term is at most h, so every ray that
  /// clears the summed hill heights clears this bound too; a person's
  /// torso never clears that sum, but mostly clears this bound.
  [[nodiscard]] double crest_bound(core::Vec2 a, core::Vec2 b) const;
  /// Dense-grid slot for a raw cell coordinate (the traverse_grid
  /// convention: floor(v / cell_size)) inside the grid.
  [[nodiscard]] std::size_t cell_slot(std::int64_t cx, std::int64_t cy) const;

  core::Aabb bounds_;
  std::vector<Obstacle> obstacles_;
  std::vector<Hill> hills_;
  double cell_size_ = 10.0;

  // CSR cell index over a dense grid: obstacles are static after
  // construction, so cell membership lives in one flat array
  // (cell_items_[cell_start_[s] .. cell_start_[s+1]]) instead of a
  // hash map of vectors — the segment queries dominate the simulation
  // profile and become pure pointer arithmetic over contiguous memory.
  // A footprint is listed in every cell its bounding box, widened by a
  // fixed rounding cover, touches; the grid spans all of them.
  std::int64_t min_cx_ = 0;  ///< raw cell coordinate of grid column 0
  std::int64_t min_cy_ = 0;
  std::int64_t width_ = 1;
  std::int64_t height_ = 1;
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_items_;

  // Kept candidates of the last collect_segment_candidates; mutable
  // scratch keeps the query allocation-free after warmup. Not
  // thread-safe, like the rest of the simulation core.
  mutable std::vector<std::uint32_t> candidate_scratch_;
};

}  // namespace agrarsec::sim
