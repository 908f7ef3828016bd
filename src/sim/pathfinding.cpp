#include "sim/pathfinding.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <queue>

namespace agrarsec::sim {

namespace {
constexpr double kSqrt2 = std::numbers::sqrt2;

/// Side, in cells, of the square tiles the slope bound is taken over.
constexpr int kSlopeTile = 8;

/// Route-cache entry bound. When full the cache is cleared wholesale — a
/// deterministic eviction policy, unlike LRU whose contents would depend
/// on query history in ways that are hard to reason about in replays.
constexpr std::size_t kCacheCapacity = 4096;

constexpr int sign_of(int v) { return v > 0 ? 1 : (v < 0 ? -1 : 0); }

/// Octile cost of a straight (cardinal or diagonal) cell run.
double run_cost(int adx, int ady, double cell_size) {
  return adx > 0 && ady > 0 ? kSqrt2 * adx * cell_size
                            : static_cast<double>(adx + ady) * cell_size;
}
}  // namespace

PathPlanner::PathPlanner(const Terrain& terrain, PlannerConfig config)
    : terrain_(terrain), config_(config) {
  const core::Aabb& bounds = terrain.bounds();
  width_ = std::max(1, static_cast<int>(std::ceil(bounds.width() / config_.cell_size_m)));
  height_ =
      std::max(1, static_cast<int>(std::ceil(bounds.height() / config_.cell_size_m)));
}

void PathPlanner::ensure_grid() const {
  // The grid has width_ x height_ >= 1 cells once built, so empty means
  // not yet built.
  if (!blocked_.empty()) return;
  const std::uint64_t start_ns = tracer_ != nullptr ? obs::Tracer::now_ns() : 0;
  blocked_ = derive_blocked(0, 0, width_ - 1, height_ - 1);
  if (tracer_ != nullptr) tracer_->record(ph_grid_, obs::Tracer::now_ns() - start_ns);
}

std::vector<std::uint8_t> PathPlanner::derive_blocked(int x0, int y0, int x1,
                                                      int y1) const {
  const int w = x1 - x0 + 1;
  std::vector<std::uint8_t> out(static_cast<std::size_t>(w) * (y1 - y0 + 1), 0);
  const auto slot = [&](int cx, int cy) -> std::uint8_t& {
    return out[static_cast<std::size_t>(cy - y0) * w + (cx - x0)];
  };
  const core::Aabb& bounds = terrain_.bounds();
  const double cs = config_.cell_size_m;

  // Obstacles: each marks the cells whose centres lie within its radius
  // plus the clearance. A centre passing that test sits less than `reach`
  // from the obstacle on each axis, so the floor/ceil window below holds
  // every such cell; the comparison rejects NaN, which then marks nothing.
  for (const Obstacle& o : terrain_.obstacles()) {
    const core::Vec2 c = o.footprint.center;
    const double reach = o.footprint.radius + config_.clearance_m;
    const double lo_x = std::floor((c.x - reach - bounds.min.x) / cs - 0.5);
    const double hi_x = std::ceil((c.x + reach - bounds.min.x) / cs - 0.5);
    const double lo_y = std::floor((c.y - reach - bounds.min.y) / cs - 0.5);
    const double hi_y = std::ceil((c.y + reach - bounds.min.y) / cs - 0.5);
    if (!(lo_x <= x1 && hi_x >= x0 && lo_y <= y1 && hi_y >= y0)) continue;
    const int ox1 = static_cast<int>(std::min<double>(hi_x, x1));
    const int oy1 = static_cast<int>(std::min<double>(hi_y, y1));
    for (int cy = static_cast<int>(std::max<double>(lo_y, y0)); cy <= oy1; ++cy) {
      for (int cx = static_cast<int>(std::max<double>(lo_x, x0)); cx <= ox1; ++cx) {
        std::uint8_t& cell = slot(cx, cy);
        if (cell == 0 && core::distance(c, cell_center(cx, cy)) < reach) cell = 1;
      }
    }
  }

  // Slope, per tile of kSlopeTile x kSlopeTile cells. `rect` spans the
  // outermost samples of too_steep over the tile, computed the same way,
  // so it holds every sample. By the mean value theorem each central
  // difference is then a partial derivative at some point of `rect`, at
  // most the terrain's gradient bound S there, and hypot(gx, gy) is at
  // most sqrt(2)·S. When that stays below max_slope the exact test cannot
  // fire and the tile is skipped. 1e-9 covers the rounding of the
  // samples; a NaN or infinite S falls through to the exact test.
  if (config_.max_slope > 0.0) {
    const double half = cs * 0.5;
    for (int ty = y0; ty <= y1; ty += kSlopeTile) {
      const int ty1 = std::min(ty + kSlopeTile - 1, y1);
      for (int tx = x0; tx <= x1; tx += kSlopeTile) {
        const int tx1 = std::min(tx + kSlopeTile - 1, x1);
        const core::Vec2 first = cell_center(tx, ty);
        const core::Vec2 last = cell_center(tx1, ty1);
        const core::Aabb rect{{first.x - half, first.y - half},
                              {last.x + half, last.y + half}};
        const double bound = terrain_.gradient_bound(rect);
        if (std::isfinite(bound) && kSqrt2 * bound + 1e-9 < config_.max_slope) continue;
        for (int cy = ty; cy <= ty1; ++cy) {
          for (int cx = tx; cx <= tx1; ++cx) {
            std::uint8_t& cell = slot(cx, cy);
            if (cell == 0 && too_steep(cx, cy)) cell = 1;
          }
        }
      }
    }
  }
  return out;
}

bool PathPlanner::too_steep(int cx, int cy) const {
  // Gradient estimate across one cell.
  const core::Vec2 center = cell_center(cx, cy);
  const double h = config_.cell_size_m * 0.5;
  const double gx = (terrain_.ground_height({center.x + h, center.y}) -
                     terrain_.ground_height({center.x - h, center.y})) /
                    (2.0 * h);
  const double gy = (terrain_.ground_height({center.x, center.y + h}) -
                     terrain_.ground_height({center.x, center.y - h})) /
                    (2.0 * h);
  return std::hypot(gx, gy) > config_.max_slope;
}

void PathPlanner::set_telemetry(obs::Telemetry* telemetry) {
  if (telemetry == nullptr) {
    tracer_ = nullptr;
    c_plans_ = c_cache_hits_ = c_cache_misses_ = c_invalidations_ = c_jps_expansions_ =
        nullptr;
    return;
  }
  tracer_ = &telemetry->tracer();
  ph_grid_ = tracer_->phase("planner.grid");
  obs::Registry& registry = telemetry->registry();
  c_plans_ = &registry.counter("planner.plans");
  c_cache_hits_ = &registry.counter("planner.cache_hits");
  c_cache_misses_ = &registry.counter("planner.cache_misses");
  c_invalidations_ = &registry.counter("planner.invalidations");
  c_jps_expansions_ = &registry.counter("planner.jps_expansions");
}

core::Vec2 PathPlanner::cell_center(int cx, int cy) const {
  const core::Aabb& bounds = terrain_.bounds();
  return {bounds.min.x + (cx + 0.5) * config_.cell_size_m,
          bounds.min.y + (cy + 0.5) * config_.cell_size_m};
}

std::pair<int, int> PathPlanner::cell_of(core::Vec2 p) const {
  const core::Aabb& bounds = terrain_.bounds();
  const core::Vec2 q = bounds.clamp(p);
  int cx = static_cast<int>((q.x - bounds.min.x) / config_.cell_size_m);
  int cy = static_cast<int>((q.y - bounds.min.y) / config_.cell_size_m);
  cx = std::clamp(cx, 0, width_ - 1);
  cy = std::clamp(cy, 0, height_ - 1);
  return {cx, cy};
}

bool PathPlanner::cell_free(int cx, int cy) const {
  ensure_grid();
  return free_at(cx, cy);
}

bool PathPlanner::free_at(int cx, int cy) const {
  if (cx < 0 || cy < 0 || cx >= width_ || cy >= height_) return false;
  return blocked_[static_cast<std::size_t>(cy) * width_ + cx] == 0;
}

void PathPlanner::set_region_blocked(core::Vec2 center, double radius, bool blocked) {
  const auto [cx0, cy0] = cell_of({center.x - radius, center.y - radius});
  const auto [cx1, cy1] = cell_of({center.x + radius, center.y + radius});
  if (cx1 < cx0 || cy1 < cy0) return;
  // Windthrow can block a region before the first plan: build the grid
  // under the disc, not over it.
  ensure_grid();
  // Freeing re-derives the window's terrain flags with the build
  // routine, so it never opens a cell the terrain itself blocks.
  const std::vector<std::uint8_t> terrain =
      blocked ? std::vector<std::uint8_t>{} : derive_blocked(cx0, cy0, cx1, cy1);
  bool changed = false;
  for (int cy = cy0; cy <= cy1; ++cy) {
    for (int cx = cx0; cx <= cx1; ++cx) {
      if (core::distance(cell_center(cx, cy), center) > radius) continue;
      const std::uint8_t want =
          blocked ? 1
                  : terrain[static_cast<std::size_t>(cy - cy0) * (cx1 - cx0 + 1) +
                            (cx - cx0)];
      std::uint8_t& slot = blocked_[static_cast<std::size_t>(cy) * width_ + cx];
      if (slot != want) {
        slot = want;
        changed = true;
      }
    }
  }
  if (changed) ++generation_;
}

std::optional<std::pair<int, int>> PathPlanner::nearest_free(int cx, int cy) const {
  if (free_at(cx, cy)) return std::make_pair(cx, cy);
  for (int radius = 1; radius <= 8; ++radius) {
    for (int dy = -radius; dy <= radius; ++dy) {
      for (int dx = -radius; dx <= radius; ++dx) {
        if (std::max(std::abs(dx), std::abs(dy)) != radius) continue;
        if (free_at(cx + dx, cy + dy)) return std::make_pair(cx + dx, cy + dy);
      }
    }
  }
  return std::nullopt;
}

bool PathPlanner::segment_clear(core::Vec2 a, core::Vec2 b) const {
  ensure_grid();
  // Clearance against obstacles (early-exit: smoothing probes thousands
  // of segments and only needs clear/not-clear, not the blocker list).
  if (terrain_.segment_blocked(a, b, config_.clearance_m)) return false;
  // Slope check sampled along the segment.
  const double len = core::distance(a, b);
  const int samples = std::max(2, static_cast<int>(len / config_.cell_size_m));
  for (int i = 0; i <= samples; ++i) {
    const double t = static_cast<double>(i) / samples;
    const auto [cx, cy] = cell_of(a + (b - a) * t);
    if (!free_at(cx, cy)) return false;
  }
  return true;
}

std::vector<core::Vec2> PathPlanner::smooth(const std::vector<core::Vec2>& raw) const {
  if (raw.size() <= 2) return raw;
  std::vector<core::Vec2> out;
  std::size_t anchor = 0;
  out.push_back(raw[0]);
  while (anchor + 1 < raw.size()) {
    // Greedily extend the shortcut as far as the segment stays clear.
    std::size_t best = anchor + 1;
    for (std::size_t probe = raw.size() - 1; probe > anchor + 1; --probe) {
      if (segment_clear(raw[anchor], raw[probe])) {
        best = probe;
        break;
      }
    }
    out.push_back(raw[best]);
    anchor = best;
  }
  return out;
}

std::optional<std::pair<int, int>> PathPlanner::jump(int x, int y, int dx, int dy,
                                                     int goal_x, int goal_y) const {
  if (dx != 0 && dy != 0) {
    // Diagonal ray: a jump point is where a cardinal sub-ray finds one.
    while (true) {
      if (!free_at(x, y)) return std::nullopt;
      if (x == goal_x && y == goal_y) return std::make_pair(x, y);
      if (jump(x + dx, y, dx, 0, goal_x, goal_y) ||
          jump(x, y + dy, 0, dy, goal_x, goal_y)) {
        return std::make_pair(x, y);
      }
      // Corner cutting forbidden: both orthogonals must be open to
      // continue diagonally.
      if (!free_at(x + dx, y) || !free_at(x, y + dy)) return std::nullopt;
      x += dx;
      y += dy;
    }
  }
  if (dx != 0) {
    // Horizontal ray.
    while (true) {
      if (!free_at(x, y)) return std::nullopt;
      if (x == goal_x && y == goal_y) return std::make_pair(x, y);
      // Forced neighbour (no-corner-cutting variant): an opening beside
      // the ray that was walled off behind us forces a turning decision.
      // Checked before the dead-end test — the last cell of a corridor
      // with a side exit is blocked ahead yet still a jump point.
      if ((free_at(x, y + 1) && !free_at(x - dx, y + 1)) ||
          (free_at(x, y - 1) && !free_at(x - dx, y - 1))) {
        return std::make_pair(x, y);
      }
      if (!free_at(x + dx, y)) return std::nullopt;  // dead end
      x += dx;
    }
  }
  // Vertical ray.
  while (true) {
    if (!free_at(x, y)) return std::nullopt;
    if (x == goal_x && y == goal_y) return std::make_pair(x, y);
    if ((free_at(x + 1, y) && !free_at(x + 1, y - dy)) ||
        (free_at(x - 1, y) && !free_at(x - 1, y - dy))) {
      return std::make_pair(x, y);
    }
    if (!free_at(x, y + dy)) return std::nullopt;
    y += dy;
  }
}

std::optional<std::vector<core::Vec2>> PathPlanner::search(int start_cx, int start_cy,
                                                           int goal_cx, int goal_cy,
                                                           bool& budget_exhausted) const {
  budget_exhausted = false;
  const int total = width_ * height_;
  auto index = [this](int cx, int cy) { return cy * width_ + cx; };
  const int start_idx = index(start_cx, start_cy);
  const int goal_idx = index(goal_cx, goal_cy);
  const core::Vec2 goal_center = cell_center(goal_cx, goal_cy);

  std::vector<core::Vec2> raw;
  if (start_idx == goal_idx) {
    raw.push_back(goal_center);
  } else {
    std::vector<double> g(static_cast<std::size_t>(total),
                          std::numeric_limits<double>::infinity());
    std::vector<int> parent(static_cast<std::size_t>(total), -1);
    std::vector<std::uint8_t> closed(static_cast<std::size_t>(total), 0);

    struct Node {
      double f;
      int idx;
      bool operator>(const Node& other) const { return f > other.f; }
    };
    std::priority_queue<Node, std::vector<Node>, std::greater<>> open;

    auto heuristic = [&](int cx, int cy) {
      const int adx = std::abs(cx - goal_cx);
      const int ady = std::abs(cy - goal_cy);
      // Octile distance: admissible and consistent for the 8-connected
      // uniform grid (matches the step costs exactly).
      return config_.cell_size_m *
             (std::max(adx, ady) + (kSqrt2 - 1.0) * std::min(adx, ady));
    };

    g[static_cast<std::size_t>(start_idx)] = 0.0;
    open.push({heuristic(start_cx, start_cy), start_idx});

    std::size_t expansions = 0;
    bool found = false;
    // Direction candidates of the node being expanded (at most 8).
    int dirs[8][2];
    while (!open.empty()) {
      const Node node = open.top();
      open.pop();
      if (closed[static_cast<std::size_t>(node.idx)]) continue;
      closed[static_cast<std::size_t>(node.idx)] = 1;
      if (node.idx == goal_idx) {
        found = true;
        break;
      }
      if (++expansions > config_.max_expansions) {
        budget_exhausted = true;
        return std::nullopt;
      }
      ++stats_.jps_expansions;
      if (c_jps_expansions_) c_jps_expansions_->add();

      const int cx = node.idx % width_;
      const int cy = node.idx / width_;
      int pdx = 0;
      int pdy = 0;
      if (const int pidx = parent[static_cast<std::size_t>(node.idx)]; pidx != -1) {
        pdx = sign_of(cx - pidx % width_);
        pdy = sign_of(cy - pidx / width_);
      }

      // Pruned successor directions, per the arrival direction. Corner
      // cutting is forbidden, so diagonal candidates require both
      // orthogonally adjacent cells open.
      int ndirs = 0;
      auto add = [&](int dx, int dy) {
        dirs[ndirs][0] = dx;
        dirs[ndirs][1] = dy;
        ++ndirs;
      };
      if (pdx == 0 && pdy == 0) {
        // Start node: every legal direction.
        add(1, 0);
        add(-1, 0);
        add(0, 1);
        add(0, -1);
        for (const int ddx : {1, -1}) {
          for (const int ddy : {1, -1}) {
            if (free_at(cx + ddx, cy) && free_at(cx, cy + ddy)) add(ddx, ddy);
          }
        }
      } else if (pdx != 0 && pdy != 0) {
        const bool horiz = free_at(cx + pdx, cy);
        const bool vert = free_at(cx, cy + pdy);
        if (vert) add(0, pdy);
        if (horiz) add(pdx, 0);
        if (horiz && vert) add(pdx, pdy);
      } else if (pdx != 0) {
        const bool next = free_at(cx + pdx, cy);
        const bool up = free_at(cx, cy + 1);
        const bool down = free_at(cx, cy - 1);
        if (next) {
          add(pdx, 0);
          if (up) add(pdx, 1);
          if (down) add(pdx, -1);
        }
        if (up) add(0, 1);
        if (down) add(0, -1);
      } else {
        const bool next = free_at(cx, cy + pdy);
        const bool right = free_at(cx + 1, cy);
        const bool left = free_at(cx - 1, cy);
        if (next) {
          add(0, pdy);
          if (right) add(1, pdy);
          if (left) add(-1, pdy);
        }
        if (right) add(1, 0);
        if (left) add(-1, 0);
      }

      for (int d = 0; d < ndirs; ++d) {
        const int dx = dirs[d][0];
        const int dy = dirs[d][1];
        const auto jp = jump(cx + dx, cy + dy, dx, dy, goal_cx, goal_cy);
        if (!jp) continue;
        const int nidx = index(jp->first, jp->second);
        if (closed[static_cast<std::size_t>(nidx)]) continue;
        const double step = run_cost(std::abs(jp->first - cx),
                                     std::abs(jp->second - cy), config_.cell_size_m);
        const double candidate = g[static_cast<std::size_t>(node.idx)] + step;
        if (candidate < g[static_cast<std::size_t>(nidx)]) {
          g[static_cast<std::size_t>(nidx)] = candidate;
          parent[static_cast<std::size_t>(nidx)] = node.idx;
          open.push({candidate + heuristic(jp->first, jp->second), nidx});
        }
      }
    }

    if (!found) return std::nullopt;

    // Reconstruct goal->start through the jump points, expanding each
    // straight run back into per-cell waypoints so smoothing sees the
    // same dense polyline vanilla A* produced (fallback legs stay one
    // cell long and never skate past unprobed obstacles).
    std::vector<int> cells;
    cells.push_back(goal_idx);
    for (int idx = goal_idx; parent[static_cast<std::size_t>(idx)] != -1;) {
      const int pidx = parent[static_cast<std::size_t>(idx)];
      int x = idx % width_;
      int y = idx / width_;
      const int px = pidx % width_;
      const int py = pidx / width_;
      const int dx = sign_of(px - x);
      const int dy = sign_of(py - y);
      while (x != px || y != py) {
        x += dx;
        y += dy;
        cells.push_back(index(x, y));
      }
      idx = pidx;
    }
    raw.reserve(cells.size());
    for (auto it = cells.rbegin(); it != cells.rend(); ++it) {
      raw.push_back(cell_center(*it % width_, *it / width_));
    }
  }

  std::vector<core::Vec2> smoothed = smooth(raw);
  // Drop the start-cell center: the machine is already in that cell.
  if (!smoothed.empty()) smoothed.erase(smoothed.begin());
  if (smoothed.empty()) smoothed.push_back(goal_center);
  return smoothed;
}

std::optional<std::vector<core::Vec2>> PathPlanner::plan(core::Vec2 start,
                                                         core::Vec2 goal) const {
  ensure_grid();
  ++stats_.plans;
  if (c_plans_) c_plans_->add();
  const auto [scx, scy] = cell_of(start);
  const auto [gcx, gcy] = cell_of(goal);
  const auto start_cell = nearest_free(scx, scy);
  const auto goal_cell = nearest_free(gcx, gcy);
  if (!start_cell || !goal_cell) return std::nullopt;

  const std::uint64_t start_idx = static_cast<std::uint64_t>(
      start_cell->second * width_ + start_cell->first);
  const std::uint64_t goal_idx =
      static_cast<std::uint64_t>(goal_cell->second * width_ + goal_cell->first);
  const std::uint64_t key = (start_idx << 32) | goal_idx;

  std::optional<std::vector<core::Vec2>> route;
  bool served_from_cache = false;
  if (config_.cache_enabled) {
    if (const auto it = cache_.find(key); it != cache_.end()) {
      if (it->second.generation == generation_) {
        ++stats_.cache_hits;
        if (c_cache_hits_) c_cache_hits_->add();
        if (!it->second.reachable) return std::nullopt;
        route = it->second.route;
        served_from_cache = true;
      } else {
        // Stale generation: the blocked grid changed since this was planned.
        ++stats_.invalidations;
        if (c_invalidations_) c_invalidations_->add();
        cache_.erase(it);
      }
    }
  }

  if (!served_from_cache) {
    ++stats_.cache_misses;
    if (c_cache_misses_) c_cache_misses_->add();
    bool budget_exhausted = false;
    route = search(start_cell->first, start_cell->second, goal_cell->first,
                   goal_cell->second, budget_exhausted);
    // A budget-exhausted failure is transient (a bigger budget might reach
    // the goal); caching it would make it sticky for the whole generation.
    // Only definitive results — found, or open list drained — are cached.
    if (config_.cache_enabled && !budget_exhausted) {
      if (cache_.size() >= kCacheCapacity) cache_.clear();
      CacheEntry entry;
      entry.generation = generation_;
      entry.reachable = route.has_value();
      if (route) entry.route = *route;
      cache_.insert_or_assign(key, std::move(entry));
    }
  }
  if (!route) return std::nullopt;

  // First-leg anchoring: cached routes start at the first waypoint past the
  // start cell (they are pure functions of the snapped cells), but the true
  // pose may sit up to a cell — or, snapped off a blocked cell, several
  // cells — away from where smoothing assumed. When the direct pose leg is
  // not clear, re-anchor through the start-cell center, the point the
  // search actually verified. Pose-dependent, so applied outside the cache.
  if (!segment_clear(start, route->front())) {
    const core::Vec2 anchor = cell_center(start_cell->first, start_cell->second);
    if (anchor.x != route->front().x || anchor.y != route->front().y) {
      route->insert(route->begin(), anchor);
    }
  }
  return route;
}

}  // namespace agrarsec::sim
