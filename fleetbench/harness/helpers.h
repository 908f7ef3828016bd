// Measurement helpers of the fleet benchmark: clocks, the export digest,
// percentiles with a minimum-tail rule, and the host-speed probe.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fleetbench {

// --- clocks -----------------------------------------------------------------

/// Monotonic wall clock in nanoseconds.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// --- digest -----------------------------------------------------------------

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a (64-bit) over `data`, continuing from `hash`.
std::uint64_t fnv1a(std::string_view data, std::uint64_t hash = kFnvOffset);
/// 16 lowercase hex digits.
std::string hex64(std::uint64_t value);

// --- percentiles ------------------------------------------------------------

/// A tail percentile is only reported when at least this many samples lie
/// beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// Nearest-rank q-quantile (q in (0,1]); nullopt when fewer than
/// `min_beyond` samples lie beyond it (or no samples at all).
std::optional<double> percentile(std::vector<double> samples, double q,
                                 std::size_t min_beyond = kMinBeyond);

/// Median of a non-empty sample (nearest rank).
double median(std::vector<double> samples);

// --- host speed ---------------------------------------------------------------

/// Wall time in ns of sorting a fixed pseudo-random array of 32,768
/// 32-bit keys (128 KB) on the calling thread: branchy work on data that
/// stays in the core's caches, like most of what the program does.
std::uint64_t sort_probe_ns();

/// About sort_probe_ns() on each CPU of the reference host (a 4-vCPU Xeon)
/// with all four probes running at once and the host quiet.
inline constexpr double kProbeReferenceNs = 3'000'000;

/// How much slower than the reference the host currently runs the kind of
/// code the program is made of. Each sample runs sort_probe_ns() at once
/// on one pinned thread per CPU the run uses, and keeps the mean time.
/// Other tenants of the host slow the probe and the program alike, so
/// scaling a measured rate by slowdown() gives it in reference-host terms.
class HostSpeed {
 public:
  explicit HostSpeed(std::size_t cpus) : cpus_(cpus == 0 ? 1 : cpus) {}

  void sample();
  /// Records one sample: the mean probe time of its threads.
  void add(double probe_ns);
  /// Mean sample over kProbeReferenceNs; 1 before any sample.
  [[nodiscard]] double slowdown() const;

 private:
  std::size_t cpus_;
  double total_ns_ = 0;
  std::size_t samples_ = 0;
};

}  // namespace fleetbench
