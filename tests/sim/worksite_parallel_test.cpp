// Determinism contract of the worksite step (DESIGN.md §9, §17): the
// per-entity stream, decide -> slot-ordered drain, drone-follow and
// per-clearance planner invariants, plus the brute-force equivalences of
// the indexed human query and the histogram-backed close_encounters
// (DESIGN.md §19).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

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

struct RecordedEvent {
  std::string topic;
  std::string payload;
  std::uint64_t origin;
  core::SimTime time;
  bool operator==(const RecordedEvent&) const = default;
};

struct Snapshot {
  std::vector<RecordedEvent> events;
  std::vector<std::tuple<double, double, double, double, double>> machine_poses;
  std::vector<std::pair<double, double>> human_poses;
  Worksite::Metrics metrics;
};

/// Builds the Figure-1-style mixed fleet, steps `steps` times, and
/// snapshots events, poses and outcome metrics.
Snapshot run_site(int steps, bool drone_follow) {
  WorksiteConfig config = fig1_site();
  config.drone_follow_post_integrate = drone_follow;
  Worksite site{config, 1234};

  Snapshot snap;
  site.bus().subscribe_all([&snap](const core::Event& e) {
    snap.events.push_back({e.topic, e.payload, e.origin, e.time});
  });

  site.add_harvester("h1", {250, 250});
  std::vector<MachineId> forwarders;
  for (int i = 0; i < 4; ++i) {
    forwarders.push_back(site.add_forwarder(
        "f" + std::to_string(i), {60.0 + 20.0 * i, 60.0}));
  }
  const MachineId drone = site.add_drone("d1", {50, 50});
  site.set_drone_orbit(drone, forwarders[0], 25.0);
  for (int i = 0; i < 8; ++i) {
    const core::Vec2 anchor{100.0 + 30.0 * (i % 4), 120.0 + 60.0 * (i / 4)};
    site.add_worker("w" + std::to_string(i), anchor, anchor);
  }

  for (int i = 0; i < steps; ++i) site.step();

  for (const Machine* m : site.machines()) {
    snap.machine_poses.emplace_back(m->position().x, m->position().y, m->heading(),
                                    m->speed(), m->load_m3());
  }
  for (const Human* h : site.humans()) {
    snap.human_poses.emplace_back(h->position().x, h->position().y);
  }
  snap.metrics = site.metrics();
  return snap;
}

// The flag only re-times the drone's orbit update: everything else on the
// site — events, outcome metrics, every non-drone pose — is untouched,
// while the drone trajectory itself changes (it now tracks the post-step
// anchor pose).
TEST(WorksiteParallel, DroneFollowFlagOnlyAffectsDroneTrajectory) {
  constexpr int kSteps = 300;
  const Snapshot off = run_site(kSteps, /*drone_follow=*/false);
  const Snapshot on = run_site(kSteps, /*drone_follow=*/true);
  ASSERT_EQ(off.events.size(), on.events.size());
  EXPECT_EQ(off.human_poses, on.human_poses);
  EXPECT_EQ(off.metrics.delivered_m3, on.metrics.delivered_m3);
  EXPECT_EQ(off.metrics.completed_cycles, on.metrics.completed_cycles);
  // Slot 5 is the drone (harvester + 4 forwarders precede it).
  ASSERT_EQ(off.machine_poses.size(), 6u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(off.machine_poses[i], on.machine_poses[i]) << "machine " << i;
  }
  EXPECT_NE(off.machine_poses[5], on.machine_poses[5]);
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
  // The grid must have pruned something, or the comparison proves little.
  EXPECT_GT(partial_cases, 0u);
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

FollowTrace run_follow_trace(bool post_integrate, int steps) {
  WorksiteConfig config = fig1_site();
  config.windthrow_rate_per_hour = 0.0;
  config.drone_follow_post_integrate = post_integrate;
  Worksite site{config, 42};
  const MachineId f = site.add_forwarder("f1", {60, 60});
  const MachineId d = site.add_drone("d1", {350, 350});  // far: never arrives
  site.set_drone_orbit(d, f, 25.0);
  site.route_machine(f, {300, 300});  // keep the anchor moving

  FollowTrace trace;
  trace.step_ms = config.step;
  for (int i = 0; i < steps; ++i) {
    trace.anchor_pre.push_back(site.machine(f)->position());
    site.step();
    trace.anchor_post.push_back(site.machine(f)->position());
    const auto wp = site.machine(d)->current_waypoint();
    trace.drone_waypoint.push_back(wp.value_or(core::Vec2{-1, -1}));
  }
  return trace;
}

// Default path: the orbit target is computed in the decide phase from the
// anchor's START-of-step pose — the documented one-step lag. This pins the
// default behavior bit-exactly (the flag must not change it).
TEST(WorksiteDroneFollow, DefaultDecidePhaseReadsPreStepPose) {
  const FollowTrace trace = run_follow_trace(false, 25);
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

// Flag on: the follower phase runs after the integrate barrier, so the
// same computation now sees the anchor's CURRENT pose — the lag is gone.
TEST(WorksiteDroneFollow, PostIntegrateFollowerReadsPostStepPose) {
  const FollowTrace trace = run_follow_trace(true, 25);
  ASSERT_NE(trace.anchor_pre.back().x, trace.anchor_post.back().x);
  double phase = 0.0;
  for (std::size_t i = 0; i < trace.drone_waypoint.size(); ++i) {
    phase += 0.35 * static_cast<double>(trace.step_ms) / core::kSecond;
    const core::Vec2 expected =
        trace.anchor_post[i] +
        core::Vec2{std::cos(phase), std::sin(phase)} * 25.0;
    EXPECT_EQ(trace.drone_waypoint[i].x, expected.x) << "step " << i;
    EXPECT_EQ(trace.drone_waypoint[i].y, expected.y) << "step " << i;
  }
}

// Drone-on-drone chain: the follower phase walks drones in ascending slot
// order, so a drone anchored on an earlier-slot drone targets that drone's
// POST-step pose (already decided and stepped this step) plus its orbit
// offset.
TEST(WorksiteDroneFollow, ChainedDroneReadsEarlierDronePostStepPose) {
  WorksiteConfig config = fig1_site();
  config.windthrow_rate_per_hour = 0.0;
  config.drone_follow_post_integrate = true;
  Worksite site{config, 17};
  const MachineId f = site.add_forwarder("f1", {60, 60});
  const MachineId lead = site.add_drone("d1", {50, 40});
  const MachineId chained = site.add_drone("d2", {390, 390});  // far: never arrives
  site.set_drone_orbit(lead, f, 25.0);
  site.set_drone_orbit(chained, lead, 15.0);
  site.route_machine(f, {300, 300});

  double phase = 0.0;
  for (int i = 0; i < 25; ++i) {
    const core::Vec2 lead_pre = site.machine(lead)->position();
    site.step();
    const core::Vec2 lead_post = site.machine(lead)->position();
    // The lead must move every step, or pre == post and the check is void.
    ASSERT_NE(lead_pre.x, lead_post.x) << "step " << i;
    phase += 0.35 * static_cast<double>(config.step) / core::kSecond;
    const core::Vec2 expected =
        lead_post + core::Vec2{std::cos(phase), std::sin(phase)} * 15.0;
    const auto wp = site.machine(chained)->current_waypoint();
    ASSERT_TRUE(wp.has_value()) << "step " << i;
    EXPECT_EQ(wp->x, expected.x) << "step " << i;
    EXPECT_EQ(wp->y, expected.y) << "step " << i;
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

// close_encounters answers from the streaming histogram. At bin edges
// (where no rounding happens) it must equal a brute-force count over the
// separation samples, recomputed here from the entities after every step:
// each moving forwarder against every human within separation_tracking_m.
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
  for (int i = 0; i < 3000; ++i) {
    site.step();
    for (const Machine* m : site.machines()) {
      if (m->kind() != MachineKind::kForwarder || m->speed() < 0.3) continue;
      for (const Human* h : site.humans()) {
        const double d = core::distance(m->position(), h->position());
        if (d <= config.separation_tracking_m) samples.push_back(d);
      }
    }
  }
  ASSERT_GT(samples.size(), 0u);
  ASSERT_EQ(site.separation_stats().count(), samples.size());

  const auto below = [&samples](double threshold) {
    return static_cast<std::uint64_t>(
        std::count_if(samples.begin(), samples.end(),
                      [threshold](double d) { return d < threshold; }));
  };
  for (double edge = 0.0; edge <= config.separation_tracking_m + 0.5;
       edge += 25 * config.separation_bin_m) {
    EXPECT_EQ(site.close_encounters(edge), below(edge)) << "threshold " << edge;
  }
  // Off-edge thresholds: the histogram rounds up to the next edge, so it
  // may only over-count, never under-count.
  EXPECT_GE(site.close_encounters(10.05), below(10.05));
}

// S1 regression: machines with different clearances must not share a route
// cache. A drone-width route served to a forwarder would thread gaps the
// forwarder cannot take.
TEST(WorksiteParallel, PerClearancePlannerInstances) {
  Worksite site{fig1_site(), 3};
  const MachineId f = site.add_forwarder("f1", {60, 60});
  const MachineId d = site.add_drone("d1", {60, 60});

  const double fc = Worksite::machine_clearance(*site.machine(f));
  const double dc = Worksite::machine_clearance(*site.machine(d));
  EXPECT_NEAR(fc, 2.0, 1e-9);  // 1.8 m body + margin = default planner
  EXPECT_NEAR(dc, 0.6, 1e-9);  // 0.4 m body + margin
  ASSERT_NE(&site.planner_for(fc), &site.planner_for(dc));
  EXPECT_EQ(&site.planner_for(fc), &site.planner());  // default instance reused
  EXPECT_NEAR(site.planner_for(dc).config().clearance_m, 0.6, 1e-9);

  // Routing the drone must not touch the forwarder planner's cache.
  const std::size_t before = site.planner().cache_size();
  site.route_machine(d, {300, 300});
  EXPECT_EQ(site.planner().cache_size(), before);

  // Both planners honour block_region (fleet-wide no-go).
  const std::uint64_t gen_f = site.planner_for(fc).generation();
  const std::uint64_t gen_d = site.planner_for(dc).generation();
  site.block_region({200, 200}, 15.0, true);
  EXPECT_GT(site.planner_for(fc).generation(), gen_f);
  EXPECT_GT(site.planner_for(dc).generation(), gen_d);
}

}  // namespace
}  // namespace agrarsec::sim
