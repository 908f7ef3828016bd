// Statistical anomaly detectors for message streams. Forestry worksites
// have no cloud backhaul for reactive security (Table I / §IV-B of the
// paper: limited connectivity alters reactive strategies), so these run
// fully on-machine with O(1) state.
#pragma once

#include <cstdint>
#include <vector>

namespace agrarsec::ids {

/// Exponentially weighted moving average with deviation bands. Flags a
/// sample when it exceeds mean + k * deviation.
class EwmaDetector {
 public:
  /// `alpha` smoothing in (0,1]; `k` band width; `warmup` samples are
  /// learned without alerting.
  EwmaDetector(double alpha, double k, std::uint32_t warmup = 16);

  /// Feeds one sample; returns true when anomalous.
  bool update(double sample);

  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double deviation() const { return dev_; }
  [[nodiscard]] bool warmed_up() const { return seen_ >= warmup_; }

 private:
  double alpha_;
  double k_;
  std::uint32_t warmup_;
  std::uint32_t seen_ = 0;
  double mean_ = 0.0;
  double dev_ = 0.0;
};

/// One-sided CUSUM detector for upward mean shifts: accumulates
/// (x - target - slack) and flags when the sum crosses `threshold`,
/// then resets.
class CusumDetector {
 public:
  CusumDetector(double target, double slack, double threshold);

  bool update(double sample);

  [[nodiscard]] double statistic() const { return s_; }
  void set_target(double target) { target_ = target; }

 private:
  double target_;
  double slack_;
  double threshold_;
  double s_ = 0.0;
};

/// Sliding-window rate counter: events per window, ring of buckets. An
/// add, and a count at the newest bucket, cost O(1); a gap of at least
/// the window's length clears the ring in one pass (DESIGN.md §27).
class RateWindow {
 public:
  /// `bucket_ms` granularity, `buckets` window length in buckets.
  RateWindow(std::int64_t bucket_ms, std::size_t buckets);

  /// Counts one event at `now_ms`; an event in the past counts in the
  /// newest bucket.
  void add(std::int64_t now_ms);
  /// Events within the window ending at `now_ms`.
  [[nodiscard]] std::uint64_t count(std::int64_t now_ms) const;

 private:
  void rotate(std::int64_t now_ms);

  std::int64_t bucket_ms_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;       ///< sum of buckets_
  std::int64_t head_bucket_ = 0;  ///< absolute bucket index of buckets_[head_]
  std::size_t head_ = 0;
  bool started_ = false;
};

}  // namespace agrarsec::ids
