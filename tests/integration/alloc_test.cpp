// Allocation pin: the heap allocations of a steady-state, soak-shaped
// secured step, counted by a replacement global operator new. The count
// is the deterministic work counter next to fleetbench's soak rate: it
// moves only when the code allocates differently, never with host speed.
// The replacement lives in this executable alone, so no other suite runs
// under it. The bound may only go down.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "integration/secured_worksite.h"
#include "service/fleet_service.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace agrarsec::integration {
namespace {

/// fleetbench's soak session: pinned_shape(4) plus add_workers_on_grid(8)
/// (fleetbench/harness/sessions.cpp), replicated here.
SecuredWorksiteConfig soak_shape() {
  SecuredWorksiteConfig config;
  config.worksite.forest.trees_per_hectare = 120;
  config.worksite.harvester_output_m3_per_min = 30.0;
  config.worksite.load_time = 15 * core::kSecond;
  config.worksite.unload_time = 10 * core::kSecond;
  config.worksite.windthrow_rate_per_hour = 4.0;
  config.worksite.weather = sim::Weather::kRain;
  config.forwarder_count = 4;
  return config;
}

void add_workers_on_grid(SecuredWorksite& site, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const core::Vec2 anchor{100.0 + 60.0 * static_cast<double>(j % 4),
                            100.0 + 60.0 * static_cast<double>(j / 4)};
    site.worksite().add_worker("w" + std::to_string(j), anchor, anchor);
  }
}

TEST(AllocationPin, SoakShapedSecuredStep) {
  // Before the in-place record path (DESIGN.md §25) this session made
  // 207.6 allocations per step, and 22.9 after it; since fusion fills a
  // reused track buffer (§26) it makes 15.4, since sensing fills reused
  // detection buffers (§27) 12.0, and since the drone's orbit retargets
  // its waypoint in place (Machine::head_to, §30) 10.0. Lower this bound
  // as the count falls; never raise it.
  constexpr double kMaxAllocationsPerStep = 11.0;
  constexpr int kWarmupSteps = 600;
  constexpr int kCountedSteps = 1500;

  auto config = soak_shape();
  config.seed = service::FleetService::derive_session_seed(3, 0);
  SecuredWorksite site{config};
  add_workers_on_grid(site, 8);
  for (int i = 0; i < kWarmupSteps; ++i) site.step();

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kCountedSteps; ++i) site.step();
  const double per_step =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) - before) /
      kCountedSteps;

  RecordProperty("allocations_per_step", std::to_string(per_step));
  EXPECT_LE(per_step, kMaxAllocationsPerStep);
  // The session did secured work: the drone's reports were sealed,
  // delivered and opened.
  EXPECT_GT(site.security_metrics().detection_reports_accepted, 0u);
}

}  // namespace
}  // namespace agrarsec::integration
