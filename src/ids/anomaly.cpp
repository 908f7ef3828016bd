#include "ids/anomaly.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace agrarsec::ids {

EwmaDetector::EwmaDetector(double alpha, double k, std::uint32_t warmup)
    : alpha_(alpha), k_(k), warmup_(warmup) {
  if (alpha <= 0.0 || alpha > 1.0) throw std::invalid_argument("EwmaDetector: alpha in (0,1]");
  if (k <= 0.0) throw std::invalid_argument("EwmaDetector: k must be positive");
}

bool EwmaDetector::update(double sample) {
  if (seen_ == 0) {
    mean_ = sample;
    dev_ = 0.0;
    ++seen_;
    return false;
  }
  const bool anomalous =
      seen_ >= warmup_ && sample > mean_ + k_ * std::max(dev_, 1e-9);
  // Learn from the sample regardless — a slowly escalating attacker is the
  // CUSUM detector's job; EWMA tracks the legitimate baseline.
  const double err = sample - mean_;
  mean_ += alpha_ * err;
  dev_ = (1.0 - alpha_) * dev_ + alpha_ * std::abs(err);
  ++seen_;
  return anomalous;
}

CusumDetector::CusumDetector(double target, double slack, double threshold)
    : target_(target), slack_(slack), threshold_(threshold) {
  if (threshold <= 0.0) throw std::invalid_argument("CusumDetector: threshold > 0");
}

bool CusumDetector::update(double sample) {
  s_ = std::max(0.0, s_ + sample - target_ - slack_);
  if (s_ >= threshold_) {
    s_ = 0.0;
    return true;
  }
  return false;
}

RateWindow::RateWindow(std::int64_t bucket_ms, std::size_t buckets)
    : bucket_ms_(bucket_ms), buckets_(buckets, 0) {
  if (bucket_ms <= 0 || buckets == 0) {
    throw std::invalid_argument("RateWindow: positive bucket size and count required");
  }
}

void RateWindow::rotate(std::int64_t now_ms) {
  const std::int64_t bucket = now_ms / bucket_ms_;
  if (!started_) {
    head_bucket_ = bucket;
    started_ = true;
    return;
  }
  if (bucket <= head_bucket_) return;
  // The gap in unsigned arithmetic: exact for any pair of int64 buckets.
  const std::uint64_t gap =
      static_cast<std::uint64_t>(bucket) - static_cast<std::uint64_t>(head_bucket_);
  head_bucket_ = bucket;
  if (gap >= buckets_.size()) {
    // Every stored bucket has left the window: clear the ring in one pass.
    // Its rotation does not matter once all of it is zero.
    std::fill(buckets_.begin(), buckets_.end(), 0);
    total_ = 0;
    return;
  }
  for (std::uint64_t step = 0; step < gap; ++step) {
    head_ = head_ + 1 == buckets_.size() ? 0 : head_ + 1;
    total_ -= buckets_[head_];
    buckets_[head_] = 0;
  }
}

void RateWindow::add(std::int64_t now_ms) {
  rotate(now_ms);
  ++buckets_[head_];
  ++total_;
}

std::uint64_t RateWindow::count(std::int64_t now_ms) const {
  if (!started_) return 0;
  const std::int64_t bucket = now_ms / bucket_ms_;
  // Asked at the head bucket, the window covers every stored bucket.
  if (bucket == head_bucket_) return total_;
  // buckets_[(head_ - j) mod n] holds absolute bucket head_bucket_ - j.
  // A stored bucket is inside the window [bucket - n + 1, bucket] iff
  // head_bucket_ - j >= bucket - n + 1.
  const auto n = static_cast<std::int64_t>(buckets_.size());
  std::uint64_t total = 0;
  for (std::int64_t j = 0; j < n; ++j) {
    const std::int64_t abs_bucket = head_bucket_ - j;
    if (abs_bucket < bucket - n + 1 || abs_bucket > bucket) continue;
    const std::size_t idx =
        (head_ + buckets_.size() - static_cast<std::size_t>(j)) % buckets_.size();
    total += buckets_[idx];
  }
  return total;
}

}  // namespace agrarsec::ids
