// Metrics registry: named counters, gauges and histograms with O(1)
// hot-path updates and name-ordered, deterministic JSON export (names and
// numbers written through core/json.h).
//
// Threading contract: a registry is not thread-safe; one thread at a time
// creates, updates and reads its instruments. That holds by construction:
// each FleetService session owns a private registry and steps on a single
// pool worker per batch, and the service updates its own registry only
// outside parallel_for (DESIGN.md §17).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace agrarsec::obs {

class Registry;

/// Instruments whose name starts with this prefix carry wall-clock-derived
/// values (step-duration histograms, timing gauges). They are machine- and
/// timing-dependent by nature, so Telemetry::deterministic_json() excludes
/// them from the deterministic export the parity tests compare; they still
/// appear in the full artifact (Telemetry::to_json()).
inline constexpr std::string_view kWallPrefix = "wall.";

/// Monotonic counter. Hot path is a single uint64 add.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  friend class Registry;
  Counter() = default;
  std::uint64_t value_ = 0;
};

/// Point-in-time double value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  friend class Registry;
  Gauge() = default;
  double value_ = 0.0;
};

/// Fixed-range histogram with the same bin semantics as core::Stats'
/// Histogram: x < lo counts as underflow, x >= hi as overflow, otherwise
/// bin = floor((x - lo) / (hi - lo) * bins) clamped to the last bin.
class Histogram {
 public:
  void add(double x);

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::size_t bins() const { return bins_; }
  [[nodiscard]] double bin_low(std::size_t i) const {
    return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(bins_);
  }

  [[nodiscard]] std::uint64_t bin_count(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return min_; }  ///< +inf when empty
  [[nodiscard]] double max() const { return max_; }  ///< -inf when empty

 private:
  friend class Registry;
  Histogram(double lo, double hi, std::size_t bins);

  double lo_;
  double hi_;
  std::size_t bins_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Name-keyed instrument store. Instruments live behind unique_ptr in a
/// sorted map, so handles are stable for the registry's lifetime and
/// exports iterate in name order (deterministic JSON).
class Registry {
 public:
  Registry() = default;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create. The returned reference stays valid for the registry's
  /// lifetime. For histogram(), the (lo, hi, bins) shape is fixed by the
  /// first caller; later callers get the existing instrument unchanged.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, double lo, double hi, std::size_t bins);

  /// Deterministic snapshot: {"counters":{...},"gauges":{...},
  /// "histograms":{...}} with name-sorted keys and stable field order.
  /// Instruments whose name starts with `exclude_prefix` are omitted
  /// (empty prefix = include everything); the deterministic telemetry
  /// view passes kWallPrefix to keep wall-clock instruments out.
  [[nodiscard]] std::string to_json(std::string_view exclude_prefix = {}) const;

  template <typename Fn>
  void for_each_counter(Fn&& fn) const {
    for (const auto& [name, c] : counters_) fn(name, *c);
  }
  template <typename Fn>
  void for_each_gauge(Fn&& fn) const {
    for (const auto& [name, g] : gauges_) fn(name, *g);
  }
  template <typename Fn>
  void for_each_histogram(Fn&& fn) const {
    for (const auto& [name, h] : histograms_) fn(name, *h);
  }

  /// Lookup without creation (nullptr when absent).
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;

 private:
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace agrarsec::obs
