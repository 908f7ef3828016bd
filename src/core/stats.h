// Exact percentiles over retained samples, used across the experiment
// harnesses (experiment scales are small enough to retain).
#pragma once

#include <cstddef>
#include <vector>

namespace agrarsec::core {

/// Sample-retaining collector with exact percentiles.
class SampleSet {
 public:
  void add(double x);
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Exact percentile by linear interpolation; q in [0,1]. Throws on empty.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double median() const { return percentile(0.5); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  void ensure_sorted() const;
};

}  // namespace agrarsec::core
