#include <sys/resource.h>

#include <algorithm>
#include <thread>

#include "harness/bench.h"

namespace fleetbench {

using agrarsec::integration::SecuredWorksite;
using agrarsec::integration::SecuredWorksiteConfig;

SecuredWorksiteConfig pinned_shape(std::size_t forwarders) {
  SecuredWorksiteConfig config;
  config.worksite.forest.trees_per_hectare = 120;
  config.worksite.harvester_output_m3_per_min = 30.0;
  config.worksite.load_time = 15 * agrarsec::core::kSecond;
  config.worksite.unload_time = 10 * agrarsec::core::kSecond;
  config.worksite.windthrow_rate_per_hour = 4.0;
  config.worksite.weather = agrarsec::sim::Weather::kRain;
  config.forwarder_count = forwarders;
  return config;
}

void add_workers_near_start(SecuredWorksite& site) {
  site.worksite().add_worker("w0", {75.0, 60.0}, {80, 80});
  site.worksite().add_worker("w1", {85.0, 60.0}, {80, 80});
}

void add_workers_on_grid(SecuredWorksite& site, std::size_t n) {
  // Anchors on a 60 m lattice across the stand, four per row.
  for (std::size_t j = 0; j < n; ++j) {
    const agrarsec::core::Vec2 anchor{100.0 + 60.0 * static_cast<double>(j % 4),
                                      100.0 + 60.0 * static_cast<double>(j / 4)};
    site.worksite().add_worker("w" + std::to_string(j), anchor, anchor);
  }
}

std::size_t fleet_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(n == 0 ? 1 : n, 1, 4);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace fleetbench
