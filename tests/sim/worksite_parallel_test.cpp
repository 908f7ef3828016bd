// Determinism contract of the worksite step (DESIGN.md §9, §17): the
// per-entity stream, decide -> slot-ordered drain, the decide-phase drone
// orbit and the one planner's clearance (DESIGN.md §22), plus the
// brute-force equivalences of the human range query and of the one
// separation store, the "worksite.separation_m" histogram (DESIGN.md §23).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/worksite.h"

namespace agrarsec::sim {
namespace {

WorksiteConfig fig1_site() {
  WorksiteConfig config;
  config.forest.bounds = {{0, 0}, {400, 400}};
  config.forest.trees_per_hectare = 200;
  config.landing_area = {40, 40};
  config.harvester_output_m3_per_min = 30.0;  // keep the fleet busy
  config.load_time = 10 * core::kSecond;
  config.unload_time = 8 * core::kSecond;
  // Windthrow on so the parity run also covers hazard spawning, planner
  // invalidation, and the hazard RNG stream.
  config.windthrow_rate_per_hour = 20.0;
  config.windthrow_duration = 30 * core::kSecond;
  return config;
}

// humans_within must return exactly what a brute-force scan of humans()
// gives — everyone with distance <= radius, in ascending id order — and
// replace whatever the caller's scratch held before.
TEST(WorksiteParallel, HumansWithinMatchesBruteForceScan) {
  WorksiteConfig config = fig1_site();
  Worksite site{config, 31};
  site.add_forwarder("f1", {60, 60});
  for (int i = 0; i < 12; ++i) {
    const core::Vec2 anchor{80.0 + 22.0 * (i % 6), 90.0 + 35.0 * (i / 6)};
    site.add_worker("w" + std::to_string(i), anchor, anchor);
  }
  for (int i = 0; i < 150; ++i) site.step();

  const std::vector<const Human*> everyone = std::as_const(site).humans();
  std::size_t partial_cases = 0;  // neither empty nor the whole site
  std::vector<const Human*> out;
  for (const double radius : {0.0, 15.0, 60.0, 400.0}) {
    for (const core::Vec2 center :
         {core::Vec2{100, 100}, core::Vec2{60, 60}, core::Vec2{350, 350}}) {
      std::vector<const Human*> expected;
      for (const Human* h : everyone) {
        if (core::distance(h->position(), center) <= radius) expected.push_back(h);
      }
      if (!expected.empty() && expected.size() < everyone.size()) ++partial_cases;

      out.assign(3, everyone.back());  // stale contents must be cleared
      site.humans_within(center, radius, out);
      EXPECT_EQ(out, expected)
          << "radius " << radius << " center (" << center.x << "," << center.y << ")";
      EXPECT_TRUE(std::is_sorted(out.begin(), out.end(),
                                 [](const Human* a, const Human* b) {
                                   return a->id().value() < b->id().value();
                                 }));
    }
  }
  // Some query must have left someone out, or the comparison proves little.
  EXPECT_GT(partial_cases, 0u);
}

// The range query's axis skip must be strict: a worker exactly `radius`
// away along one axis is inside the disc (the distance is exactly
// `radius`), so skipping on |dx| >= radius would drop it. Workers outside
// the stand's bounds are found by their exact distance like any other.
// Before any step, the query reads the spawn positions.
TEST(WorksiteParallel, HumansWithinBoundaryInclusiveAndOutOfBoundsWorkers) {
  Worksite site{fig1_site(), 4};
  std::vector<const Human*> out;
  site.humans_within({100, 100}, 50.0, out);
  EXPECT_TRUE(out.empty());

  const HumanId east = site.add_worker("east", {115, 100}, {115, 100});
  const HumanId south = site.add_worker("south", {100, 85}, {100, 85});
  const HumanId past = site.add_worker("past", {115.001, 100}, {115.001, 100});
  const HumanId outside = site.add_worker("outside", {-30, 200}, {-30, 200});
  const HumanId far_out = site.add_worker("far-out", {-500, -500}, {-500, -500});
  ASSERT_FALSE(site.terrain().bounds().contains(site.human(outside)->position()));

  const auto ids = [&out] {
    std::vector<HumanId> v;
    for (const Human* h : out) v.push_back(h->id());
    return v;
  };
  site.humans_within({100, 100}, 15.0, out);
  EXPECT_EQ(ids(), (std::vector<HumanId>{east, south}));
  site.humans_within({10, 200}, 40.0, out);  // exactly 40 m to "outside"
  EXPECT_EQ(ids(), (std::vector<HumanId>{outside}));
  site.humans_within({10, 200}, 39.999, out);
  EXPECT_TRUE(out.empty());
  site.humans_within({-490, -500}, 10.0, out);
  EXPECT_EQ(ids(), (std::vector<HumanId>{far_out}));
  site.humans_within({100, 100}, 16.0, out);
  EXPECT_EQ(ids(), (std::vector<HumanId>{east, south, past}));
}

/// Drives a forwarder with an orbiting drone far enough away that the
/// drone never reaches its waypoint (so current_waypoint() stays exactly
/// the orbit target decide_drone set this step), and returns, per step,
/// the anchor's pre-step pose, post-step pose and the drone's waypoint.
struct FollowTrace {
  std::vector<core::Vec2> anchor_pre;
  std::vector<core::Vec2> anchor_post;
  std::vector<core::Vec2> drone_waypoint;
  core::SimDuration step_ms = 0;
};

FollowTrace run_follow_trace(int steps) {
  WorksiteConfig config = fig1_site();
  config.windthrow_rate_per_hour = 0.0;
  Worksite site{config, 42};
  const MachineId f = site.add_forwarder("f1", {60, 60});
  const MachineId d = site.add_drone("d1", {350, 350});  // far: never arrives
  site.set_drone_orbit(d, f, 25.0);
  site.route_machine(f, {300, 300});  // keep the anchor moving

  FollowTrace trace;
  trace.step_ms = kWorksiteStep;
  for (int i = 0; i < steps; ++i) {
    trace.anchor_pre.push_back(site.machine(f)->position());
    site.step();
    trace.anchor_post.push_back(site.machine(f)->position());
    const auto wp = site.machine(d)->current_waypoint();
    trace.drone_waypoint.push_back(wp.value_or(core::Vec2{-1, -1}));
  }
  return trace;
}

// The orbit target is computed in the decide phase from the anchor's
// START-of-step pose — the documented one-step lag, pinned bit-exactly.
TEST(WorksiteDroneFollow, DefaultDecidePhaseReadsPreStepPose) {
  const FollowTrace trace = run_follow_trace(25);
  // The anchor must actually move, or pre == post and the test says nothing.
  ASSERT_NE(trace.anchor_pre.back().x, trace.anchor_post.back().x);
  double phase = 0.0;
  for (std::size_t i = 0; i < trace.drone_waypoint.size(); ++i) {
    phase += 0.35 * static_cast<double>(trace.step_ms) / core::kSecond;
    const core::Vec2 expected =
        trace.anchor_pre[i] +
        core::Vec2{std::cos(phase), std::sin(phase)} * 25.0;
    EXPECT_EQ(trace.drone_waypoint[i].x, expected.x) << "step " << i;
    EXPECT_EQ(trace.drone_waypoint[i].y, expected.y) << "step " << i;
  }
}

// Per-entity streams: an entity's RNG-driven behaviour depends only on the
// worksite seed and its own id, never on who else draws. Adding a second
// worker must leave the first worker's walk untouched (with the old shared
// stream it interleaved draws and diverged immediately).
TEST(WorksiteParallel, WorkerStreamIndependentOfPopulation) {
  WorksiteConfig config = fig1_site();
  config.windthrow_rate_per_hour = 0.0;

  Worksite alone{config, 77};
  const HumanId w_alone = alone.add_worker("w1", {150, 150}, {150, 150});

  Worksite crowded{config, 77};
  const HumanId w_crowded = crowded.add_worker("w1", {150, 150}, {150, 150});
  crowded.add_worker("w2", {180, 180}, {180, 180});
  crowded.add_worker("w3", {120, 190}, {120, 190});

  for (int i = 0; i < 500; ++i) {
    alone.step();
    crowded.step();
    const core::Vec2 pa = alone.human(w_alone)->position();
    const core::Vec2 pc = crowded.human(w_crowded)->position();
    ASSERT_EQ(pa.x, pc.x) << "step " << i;
    ASSERT_EQ(pa.y, pc.y) << "step " << i;
  }
}

// Same invariant for machines: the harvester's pile placement draws come
// from its own stream, so an unrelated extra machine does not perturb it.
TEST(WorksiteParallel, HarvesterStreamIndependentOfPopulation) {
  WorksiteConfig config = fig1_site();
  config.windthrow_rate_per_hour = 0.0;

  Worksite alone{config, 9};
  alone.add_harvester("h1", {250, 250});
  Worksite crowded{config, 9};
  crowded.add_harvester("h1", {250, 250});
  crowded.add_drone("d1", {50, 50});  // different kind, later id

  for (int i = 0; i < 400; ++i) {
    alone.step();
    crowded.step();
  }
  ASSERT_EQ(alone.piles().size(), crowded.piles().size());
  for (std::size_t i = 0; i < alone.piles().size(); ++i) {
    EXPECT_EQ(alone.piles()[i].position.x, crowded.piles()[i].position.x);
    EXPECT_EQ(alone.piles()[i].position.y, crowded.piles()[i].position.y);
  }
}

// S2: weather-driven windthrow must actually reach the planners — events
// on the bus, hazards counted, cached routes invalidated, debris cleared
// after the configured duration.
TEST(WorksiteParallel, WindthrowBlocksPlannersAndClears) {
  WorksiteConfig config = fig1_site();
  config.weather = Weather::kSnow;           // highest hazard factor
  config.windthrow_rate_per_hour = 2000.0;   // deterministic-ish: fires fast
  config.windthrow_duration = 5 * core::kSecond;
  Worksite site{config, 5};

  int spawned = 0;
  int cleared = 0;
  site.bus().subscribe("worksite/windthrow",
                       [&spawned](const core::Event&) { ++spawned; });
  site.bus().subscribe("worksite/windthrow-cleared",
                       [&cleared](const core::Event&) { ++cleared; });

  site.add_harvester("h1", {200, 200});
  site.add_forwarder("f1", {60, 60});
  (void)site.plan_route({60, 60}, {350, 350});  // warm a cache entry
  for (int i = 0; i < 1200; ++i) site.step();  // 2 sim-minutes

  EXPECT_GT(spawned, 0);
  EXPECT_GT(cleared, 0);
  EXPECT_EQ(site.metrics().windthrow_events, static_cast<std::uint64_t>(spawned));
  // Generation-invalidation: the warmed entry was planned before the first
  // windthrow bumped the blocked-grid generation, so re-querying the same
  // pair must evict it instead of serving a stale route.
  (void)site.plan_route({60, 60}, {350, 350});
  EXPECT_GT(site.metrics().planner.invalidations, 0u);
}

TEST(WorksiteParallel, WindthrowFactorOrdering) {
  EXPECT_LT(windthrow_weather_factor(Weather::kClear),
            windthrow_weather_factor(Weather::kFog));
  EXPECT_LT(windthrow_weather_factor(Weather::kFog),
            windthrow_weather_factor(Weather::kRain));
  EXPECT_LT(windthrow_weather_factor(Weather::kRain),
            windthrow_weather_factor(Weather::kSnow));
}

// The "worksite.separation_m" histogram is the one separation store. The
// samples, recomputed here from the entities after every step (each moving
// forwarder in slot order against every human within
// kSeparationTrackingM in id order), must match it exactly: count, min,
// max, overflow, each bin (so the close-encounter count below every 2 m
// bin edge), and the sum, accumulated in the same order.
TEST(WorksiteParallel, CloseEncountersMatchBruteForceAtBinEdges) {
  WorksiteConfig config = fig1_site();
  config.windthrow_rate_per_hour = 0.0;
  Worksite site{config, 21};
  site.add_harvester("h1", {250, 250});
  site.add_forwarder("f1", {60, 60});
  site.add_forwarder("f2", {90, 60});
  for (int i = 0; i < 6; ++i) {
    const core::Vec2 anchor{100.0 + 25.0 * i, 130.0};
    site.add_worker("w" + std::to_string(i), anchor, anchor);
  }

  std::vector<double> samples;
  double sum = 0.0;
  for (int i = 0; i < 3000; ++i) {
    site.step();
    for (const Machine* m : site.machines()) {
      if (m->kind() != MachineKind::kForwarder || m->speed() < 0.3) continue;
      for (const Human* h : site.humans()) {
        const double d = core::distance(m->position(), h->position());
        if (d > kSeparationTrackingM) continue;
        samples.push_back(d);
        sum += d;
      }
    }
  }
  ASSERT_GT(samples.size(), 0u);

  const obs::Histogram& sep =
      site.telemetry().registry().histogram("worksite.separation_m", 0, 1, 1);
  ASSERT_EQ(sep.bins(), 25u);
  ASSERT_EQ(sep.hi(), kSeparationTrackingM);
  EXPECT_EQ(sep.count(), samples.size());
  EXPECT_EQ(site.metrics().separation_samples, samples.size());
  EXPECT_EQ(sep.sum(), sum);
  const double min = *std::min_element(samples.begin(), samples.end());
  EXPECT_EQ(sep.min(), min);
  EXPECT_EQ(site.min_human_separation(), min);
  EXPECT_EQ(sep.max(), *std::max_element(samples.begin(), samples.end()));
  // Bin i holds the samples with floor(d / range * 25) == i; a sample at
  // exactly the range overflows.
  std::vector<std::uint64_t> bins(25, 0);
  std::uint64_t overflow = 0;
  for (const double d : samples) {
    if (d >= kSeparationTrackingM) {
      ++overflow;
    } else {
      ++bins[static_cast<std::size_t>(d / kSeparationTrackingM * 25.0)];
    }
  }
  EXPECT_EQ(sep.underflow(), 0u);
  EXPECT_EQ(sep.overflow(), overflow);
  for (std::size_t i = 0; i < sep.bins(); ++i) {
    EXPECT_EQ(sep.bin_count(i), bins[i]) << "bin " << i;
  }
  // The samples spread over most bins, or the comparison proves little.
  EXPECT_GE(std::count_if(bins.begin(), bins.end(), [](std::uint64_t n) { return n > 0; }),
            20);
}

// The worksite owns one planner, dilated for a 1.8 m body (2.0 m
// clearance). A forwarder wider than that would be routed through gaps it
// does not fit, so add_forwarder refuses it before allocating an id; the
// default body, exactly at the planner's clearance, is admitted.
TEST(WorksiteParallel, AddForwarderRejectsBodyWiderThanPlanner) {
  Worksite site{fig1_site(), 3};
  MachineConfig wide;
  wide.body_radius_m = 1.9;  // 2.1 m clearance > the planner's 2.0 m
  EXPECT_THROW(site.add_forwarder("wide", {60, 60}, wide), std::invalid_argument);
  EXPECT_TRUE(site.machines().empty());

  const MachineId f = site.add_forwarder("f1", {60, 60});
  EXPECT_EQ(f.value(), 1u);  // the rejected forwarder consumed no id
  ASSERT_EQ(site.machines().size(), 1u);
  EXPECT_DOUBLE_EQ(site.planner().config().clearance_m, 2.0);
}

}  // namespace
}  // namespace agrarsec::sim
