#include <gtest/gtest.h>

#include "safety/monitor.h"

namespace agrarsec::safety {
namespace {

struct Fixture {
  sim::Machine forwarder{MachineId{1}, sim::MachineKind::kForwarder, "f1",
                         {0, 0}, sim::MachineConfig{}};
  core::EventBus bus;
  MonitorConfig config;
  Fixture() {
    config.critical_zone_m = 10.0;
    config.warning_zone_m = 20.0;
    config.cover_timeout = 2 * core::kSecond;
    config.restart_delay = 1 * core::kSecond;
  }

  FusedTrack track_at(double distance) {
    FusedTrack t;
    t.position = {distance, 0};
    t.confidence = 0.9;
    t.last_update = 0;
    return t;
  }
};

TEST(Monitor, StopsOnCriticalZone) {
  Fixture f;
  SafetyMonitor monitor{f.forwarder, f.config, &f.bus};
  f.forwarder.head_to({100, 0});
  monitor.update({f.track_at(5.0)}, 0);
  EXPECT_TRUE(f.forwarder.stopped());
  EXPECT_EQ(monitor.last_reason(), EstopReason::kPersonInCriticalZone);
  EXPECT_EQ(monitor.stats().estops, 1u);
  EXPECT_EQ(monitor.stats().zone_violations, 1u);
}

TEST(Monitor, DegradesOnWarningZone) {
  Fixture f;
  SafetyMonitor monitor{f.forwarder, f.config, &f.bus};
  f.forwarder.head_to({100, 0});
  monitor.update({f.track_at(15.0)}, 0);
  EXPECT_FALSE(f.forwarder.stopped());
  EXPECT_EQ(f.forwarder.mode(), sim::DriveMode::kDegraded);
}

TEST(Monitor, ClearTracksNormalMode) {
  Fixture f;
  SafetyMonitor monitor{f.forwarder, f.config, &f.bus};
  monitor.update({f.track_at(50.0)}, 0);
  EXPECT_EQ(f.forwarder.mode(), sim::DriveMode::kNormal);
}

TEST(Monitor, AutoRestartAfterClearDelay) {
  Fixture f;
  SafetyMonitor monitor{f.forwarder, f.config, &f.bus};
  monitor.update({f.track_at(5.0)}, 0);
  ASSERT_TRUE(f.forwarder.stopped());
  // Zone clears; before restart_delay the machine stays stopped.
  monitor.update({}, 500);
  EXPECT_TRUE(f.forwarder.stopped());
  monitor.update({}, 1600);
  EXPECT_FALSE(f.forwarder.stopped());
  EXPECT_EQ(monitor.last_reason(), EstopReason::kNone);
}

TEST(Monitor, RestartTimerResetsOnReappearance) {
  Fixture f;
  SafetyMonitor monitor{f.forwarder, f.config, &f.bus};
  monitor.update({f.track_at(5.0)}, 0);
  monitor.update({}, 500);
  monitor.update({f.track_at(5.0)}, 900);  // person back: stop latched again
  monitor.update({}, 1200);
  EXPECT_TRUE(f.forwarder.stopped());  // clear only since 1200
  monitor.update({}, 2300);
  EXPECT_FALSE(f.forwarder.stopped());
}

TEST(Monitor, CoverLossDegrades) {
  Fixture f;
  SafetyMonitor monitor{f.forwarder, f.config, &f.bus};
  monitor.note_cover(0);
  EXPECT_TRUE(monitor.cover_fresh(1000));
  monitor.update({}, 1000);
  EXPECT_EQ(f.forwarder.mode(), sim::DriveMode::kNormal);
  // 3 s later the cover is stale -> degraded.
  monitor.update({}, 3000);
  EXPECT_FALSE(monitor.cover_fresh(3000));
  EXPECT_EQ(f.forwarder.mode(), sim::DriveMode::kDegraded);
  EXPECT_GE(monitor.stats().cover_losses, 1u);
}

TEST(Monitor, CoverLossCanStopWhenConfigured) {
  Fixture f;
  f.config.stop_on_cover_loss = true;
  SafetyMonitor monitor{f.forwarder, f.config, &f.bus};
  monitor.note_cover(0);
  monitor.update({}, 5000);
  EXPECT_TRUE(f.forwarder.stopped());
  EXPECT_EQ(monitor.last_reason(), EstopReason::kCommsLost);
}

TEST(Monitor, NoCoverSignalNoFallback) {
  // A site without a drone never degrades for cover: the fallback logic
  // only arms once collaborative cover has been seen.
  Fixture f;
  SafetyMonitor monitor{f.forwarder, f.config, &f.bus};
  monitor.update({}, 10000);
  EXPECT_EQ(f.forwarder.mode(), sim::DriveMode::kNormal);
}

TEST(Monitor, FreshCoverRestoresNormalSpeed) {
  Fixture f;
  SafetyMonitor monitor{f.forwarder, f.config, &f.bus};
  monitor.note_cover(0);
  monitor.update({}, 5000);
  ASSERT_EQ(f.forwarder.mode(), sim::DriveMode::kDegraded);
  monitor.note_cover(5100);
  monitor.update({}, 5200);
  EXPECT_EQ(f.forwarder.mode(), sim::DriveMode::kNormal);
}

TEST(Monitor, IdsCriticalStops) {
  Fixture f;
  SafetyMonitor monitor{f.forwarder, f.config, &f.bus};
  monitor.ids_critical(100);
  EXPECT_TRUE(f.forwarder.stopped());
  EXPECT_EQ(monitor.last_reason(), EstopReason::kIdsCritical);
}

TEST(Monitor, IdsCriticalRespectsConfig) {
  Fixture f;
  f.config.stop_on_ids_critical = false;
  SafetyMonitor monitor{f.forwarder, f.config, &f.bus};
  monitor.ids_critical(100);
  EXPECT_FALSE(f.forwarder.stopped());
}

TEST(Monitor, RemoteCommandStops) {
  Fixture f;
  SafetyMonitor monitor{f.forwarder, f.config, &f.bus};
  monitor.command_stop(EstopReason::kRemoteCommand, 50);
  EXPECT_TRUE(f.forwarder.stopped());
  EXPECT_EQ(monitor.last_reason(), EstopReason::kRemoteCommand);
}

TEST(Monitor, EstopEventPublished) {
  Fixture f;
  SafetyMonitor monitor{f.forwarder, f.config, &f.bus};
  std::string payload;
  f.bus.subscribe("safety/estop", [&](const core::Event& e) { payload = e.payload; });
  monitor.update({f.track_at(3.0)}, 42);
  EXPECT_EQ(payload, "reason=person-in-critical-zone");
}

TEST(Monitor, RepeatedCriticalTracksSingleEstop) {
  Fixture f;
  SafetyMonitor monitor{f.forwarder, f.config, &f.bus};
  monitor.update({f.track_at(5.0)}, 0);
  monitor.update({f.track_at(5.0)}, 100);
  monitor.update({f.track_at(5.0)}, 200);
  EXPECT_EQ(monitor.stats().estops, 1u);       // latched, not re-triggered
  EXPECT_EQ(monitor.stats().zone_violations, 3u);
}

TEST(Monitor, ReasonNamesStable) {
  EXPECT_EQ(estop_reason_name(EstopReason::kPersonInCriticalZone),
            "person-in-critical-zone");
  EXPECT_EQ(estop_reason_name(EstopReason::kCommsLost), "comms-lost");
}

}  // namespace
}  // namespace agrarsec::safety
