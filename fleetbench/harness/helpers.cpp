#include "harness/helpers.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <thread>

namespace fleetbench {

std::uint64_t fnv1a(std::string_view data, std::uint64_t hash) {
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

namespace {
/// 1-based nearest rank of the q-quantile among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)), 1, n);
}
}  // namespace

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

std::optional<double> percentile(std::vector<double> samples, double q,
                                 std::size_t min_beyond) {
  if (samples.empty() || samples_beyond(samples.size(), q) < min_beyond) {
    return std::nullopt;
  }
  const std::size_t k = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double median(std::vector<double> samples) {
  return *percentile(std::move(samples), 0.5, 0);
}

std::uint64_t sort_probe_ns() {
  std::vector<std::uint32_t> keys(32'768);
  std::uint32_t x = 2463534242u;  // xorshift32: the same keys every time
  for (auto& key : keys) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    key = x;
  }
  const std::uint64_t t0 = now_ns();
  std::sort(keys.begin(), keys.end());
  return now_ns() - t0;
}

void HostSpeed::sample() {
  // The CPUs this process may run on, in order; one probe thread each.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < cpus_; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) cpus.push_back(0);
  std::vector<std::uint64_t> ns(cpus.size(), 0);
  {
    // jthread joins on every path out of this block, throws included.
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      threads.emplace_back([&ns, &cpus, i] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i], &one);
        // Best effort: unpinned, the probe still runs, only less evenly.
        pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
        ns[i] = sort_probe_ns();
      });
    }
  }
  double sum = 0;
  for (const std::uint64_t v : ns) sum += static_cast<double>(v);
  add(sum / static_cast<double>(ns.size()));
}

void HostSpeed::add(double probe_ns) {
  total_ns_ += probe_ns;
  ++samples_;
}

double HostSpeed::slowdown() const {
  return samples_ == 0 ? 1.0 : total_ns_ / static_cast<double>(samples_) / kProbeReferenceNs;
}

}  // namespace fleetbench
