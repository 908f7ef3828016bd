#include "core/stats.h"

#include <algorithm>
#include <stdexcept>

namespace agrarsec::core {

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::percentile(double q) const {
  if (samples_.empty()) throw std::logic_error("SampleSet::percentile on empty set");
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  if (samples_.empty()) throw std::logic_error("SampleSet::min on empty set");
  ensure_sorted();
  return samples_.front();
}

double SampleSet::max() const {
  if (samples_.empty()) throw std::logic_error("SampleSet::max on empty set");
  ensure_sorted();
  return samples_.back();
}

}  // namespace agrarsec::core
