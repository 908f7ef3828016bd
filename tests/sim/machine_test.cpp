#include <gtest/gtest.h>

#include "sim/human.h"
#include "sim/machine.h"

namespace agrarsec::sim {
namespace {

Machine forwarder_at(core::Vec2 p) {
  return Machine{MachineId{1}, MachineKind::kForwarder, "f1", p, MachineConfig{}};
}

TEST(Machine, IdleWithoutRoute) {
  Machine m = forwarder_at({0, 0});
  EXPECT_TRUE(m.idle());
  EXPECT_DOUBLE_EQ(m.step(100), 0.0);
  EXPECT_EQ(m.position(), (core::Vec2{0, 0}));
}

TEST(Machine, DrivesTowardWaypoint) {
  Machine m = forwarder_at({0, 0});
  m.head_to({100, 0});
  double travelled = 0;
  for (int i = 0; i < 100; ++i) travelled += m.step(100);  // 10 s
  EXPECT_GT(travelled, 20.0);
  EXPECT_GT(m.position().x, 20.0);
  EXPECT_NEAR(m.position().y, 0.0, 1.0);
}

TEST(Machine, ReachesAndPopsWaypoints) {
  Machine m = forwarder_at({0, 0});
  m.head_to({10, 0});
  m.push_waypoint({10, 10});
  for (int i = 0; i < 600; ++i) m.step(100);
  EXPECT_TRUE(m.idle());
  EXPECT_NEAR(m.position().x, 10.0, 2.0);
  EXPECT_NEAR(m.position().y, 10.0, 2.0);
}

TEST(Machine, SpeedIsLimited) {
  Machine m = forwarder_at({0, 0});
  m.head_to({1000, 0});
  for (int i = 0; i < 200; ++i) {
    m.step(100);
    EXPECT_LE(m.speed(), m.config().max_speed_mps + 1e-9);
  }
}

TEST(Machine, EstopStopsQuickly) {
  Machine m = forwarder_at({0, 0});
  m.head_to({1000, 0});
  for (int i = 0; i < 100; ++i) m.step(100);  // reach cruise speed
  ASSERT_GT(m.speed(), 3.0);

  m.emergency_stop(true);
  EXPECT_TRUE(m.stopped());
  double stopping_distance = 0;
  int steps = 0;
  while (m.speed() > 0.01 && steps < 100) {
    stopping_distance += m.step(100);
    ++steps;
  }
  // v^2/(2a) = 16/6 ≈ 2.7 m at 4 m/s.
  EXPECT_LT(stopping_distance, 5.0);
  EXPECT_LT(steps, 20);
}

TEST(Machine, SoftStopTakesLonger) {
  Machine hard = forwarder_at({0, 0});
  Machine soft = forwarder_at({0, 0});
  for (Machine* m : {&hard, &soft}) {
    m->head_to({1000, 0});
    for (int i = 0; i < 100; ++i) m->step(100);
  }
  hard.emergency_stop(true);
  soft.emergency_stop(false);
  double hard_dist = 0, soft_dist = 0;
  for (int i = 0; i < 100; ++i) {
    hard_dist += hard.step(100);
    soft_dist += soft.step(100);
  }
  EXPECT_LT(hard_dist, soft_dist);
}

TEST(Machine, ReleaseResumesDriving) {
  Machine m = forwarder_at({0, 0});
  m.head_to({1000, 0});
  for (int i = 0; i < 50; ++i) m.step(100);
  m.emergency_stop(true);
  for (int i = 0; i < 50; ++i) m.step(100);
  const double x_stopped = m.position().x;
  m.release_stop();
  for (int i = 0; i < 50; ++i) m.step(100);
  EXPECT_GT(m.position().x, x_stopped + 5.0);
}

TEST(Machine, DegradedModeSlower) {
  Machine normal = forwarder_at({0, 0});
  Machine degraded = forwarder_at({0, 0});
  normal.head_to({1000, 0});
  degraded.head_to({1000, 0});
  degraded.set_degraded(true);
  for (int i = 0; i < 100; ++i) {
    normal.step(100);
    degraded.step(100);
  }
  EXPECT_GT(normal.position().x, degraded.position().x * 2);
  EXPECT_LE(degraded.speed(), kDegradedSpeedMps + 1e-9);
}

TEST(Machine, StopOverridesDegraded) {
  Machine m = forwarder_at({0, 0});
  m.emergency_stop(true);
  m.set_degraded(true);
  EXPECT_EQ(m.mode(), DriveMode::kStopped);
}

TEST(Machine, LoadAndUnload) {
  Machine m = forwarder_at({0, 0});
  m.load_logs(5.0);
  m.load_logs(5.0);
  EXPECT_DOUBLE_EQ(m.load_m3(), 10.0);
  EXPECT_FALSE(m.full());
  m.load_logs(100.0);  // clamped at capacity
  EXPECT_DOUBLE_EQ(m.load_m3(), kLoadCapacityM3);
  EXPECT_TRUE(m.full());
  EXPECT_DOUBLE_EQ(m.unload_logs(), kLoadCapacityM3);
  EXPECT_DOUBLE_EQ(m.load_m3(), 0.0);
}

TEST(Machine, OdometerAccumulates) {
  Machine m = forwarder_at({0, 0});
  m.head_to({50, 0});
  for (int i = 0; i < 300; ++i) m.step(100);
  EXPECT_NEAR(m.odometer(), 50.0, 3.0);
}

TEST(Machine, DroneSensorHeightIsAltitude) {
  MachineConfig config;
  config.altitude_m = 42.0;
  Machine drone{MachineId{2}, MachineKind::kDrone, "d1", {0, 0}, config};
  EXPECT_DOUBLE_EQ(drone.sensor_agl(), 42.0);
  Machine fw = forwarder_at({0, 0});
  EXPECT_DOUBLE_EQ(fw.sensor_agl(), kSensorHeightM);
}

TEST(Human, WalksTowardWaypointsWithinWorkArea) {
  HumanConfig config;
  config.pause_probability = 0.0;
  Human h{HumanId{1}, "w1", {0, 0}, {50, 50}, config};
  core::Rng rng{3};
  for (int i = 0; i < 5000; ++i) h.step(100, rng);
  // Must be inside (or near) the work area around the anchor.
  EXPECT_LT(core::distance(h.position(), {50, 50}), kWorkAreaRadiusM + 5.0);
  EXPECT_GT(core::distance(h.position(), {0, 0}), 1.0);  // moved at all
}

TEST(Human, WalkSpeedBounded) {
  HumanConfig config;
  config.pause_probability = 0.0;
  Human h{HumanId{1}, "w1", {0, 0}, {30, 0}, config};
  core::Rng rng{4};
  core::Vec2 prev = h.position();
  for (int i = 0; i < 200; ++i) {
    h.step(100, rng);
    EXPECT_LE(core::distance(prev, h.position()), kWalkSpeedMps * 0.1 + 1e-9);
    prev = h.position();
  }
}

TEST(Human, PausesHoldPosition) {
  HumanConfig config;
  config.pause_probability = 1.0;  // always pause at waypoints
  config.pause_mean = 10 * core::kSecond;
  Human h{HumanId{1}, "w1", {0, 0}, {5, 0}, config};
  core::Rng rng{5};
  // Walk long enough to hit a waypoint and start pausing.
  bool paused_somewhere = false;
  core::Vec2 prev = h.position();
  for (int i = 0; i < 2000; ++i) {
    h.step(100, rng);
    if (core::distance(prev, h.position()) < 1e-12) paused_somewhere = true;
    prev = h.position();
  }
  EXPECT_TRUE(paused_somewhere);
}


TEST(Machine, NoWaypointOrbiting) {
  // Regression: a waypoint placed beside the machine (inside the full-
  // speed turning radius) must still be captured — the approach slowdown
  // shrinks the turn radius below the waypoint tolerance.
  Machine m = forwarder_at({0, 0});
  m.head_to({100, 0});
  for (int i = 0; i < 100; ++i) m.step(100);  // cruise at full speed east
  ASSERT_GT(m.speed(), 3.5);
  // Next waypoint is 4 m to the side and slightly behind.
  const core::Vec2 side{m.position().x - 2.0, m.position().y + 4.0};
  m.head_to(side);
  int steps = 0;
  while (!m.idle() && steps < 600) {
    m.step(100);
    ++steps;
  }
  EXPECT_TRUE(m.idle()) << "machine orbited the waypoint for 60 s";
  EXPECT_LT(steps, 400);
}

TEST(Machine, ApproachSlowdownOnlyNearWaypoint) {
  // Far from the waypoint the machine still cruises at full speed.
  Machine m = forwarder_at({0, 0});
  m.head_to({500, 0});
  for (int i = 0; i < 150; ++i) m.step(100);
  EXPECT_GT(m.speed(), 3.5);
}

}  // namespace
}  // namespace agrarsec::sim
