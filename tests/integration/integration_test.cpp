// End-to-end behaviour of the secured worksite — including the paper's
// headline claims: the drone viewpoint reduces occlusion misses (Fig. 2),
// attacks on plaintext comms cause unsafe behaviour (§III-B), and the
// security controls restore safety.
#include <gtest/gtest.h>

#include <vector>

#include "integration/secured_worksite.h"

namespace agrarsec::integration {
namespace {

SecuredWorksiteConfig base_config(std::uint64_t seed) {
  SecuredWorksiteConfig config;
  config.seed = seed;
  config.worksite.forest.trees_per_hectare = 250;
  config.worksite.forest.boulders_per_hectare = 30;  // occlusion-rich stand
  config.worksite.forest.brush_per_hectare = 80;
  return config;
}

void add_workers(SecuredWorksite& site, int count) {
  // Anchor workers where the forwarder operates so encounters happen.
  for (int i = 0; i < count; ++i) {
    const double offset = 15.0 + 10.0 * i;
    site.worksite().add_worker("worker-" + std::to_string(i),
                               {60 + offset, 60}, {80, 80});
  }
}

// Regression: the flight-recorder ring used to be a hard-coded 4096
// default with no way through SecuredWorksiteConfig — long campaigns
// silently dropped early events at a size nobody chose. The configured
// capacity must reach the ring and govern wraparound.
TEST(SecuredWorksite, FlightRecorderCapacityIsConfigurable) {
  SecuredWorksiteConfig config = base_config(7);
  config.telemetry.flight_capacity = 2;
  SecuredWorksite site{config};
  obs::FlightRecorder& rec = site.telemetry().recorder();
  ASSERT_EQ(rec.capacity(), 2u);

  const std::uint64_t base_total = rec.total_recorded();
  rec.record(1, "test", "a");
  rec.record(2, "test", "b");
  rec.record(3, "test", "c");
  EXPECT_EQ(rec.size(), 2u);  // capacity-2 ring wrapped as configured
  EXPECT_EQ(rec.total_recorded(), base_total + 3);
  EXPECT_GE(rec.dropped(), 1u);

  // Default stays 4096.
  SecuredWorksite default_site{base_config(7)};
  EXPECT_EQ(default_site.telemetry().recorder().capacity(), 4096u);
}

// The production site must feed the obs histograms: separation distances
// into the deterministic export, step wall time into the full artifact
// (and ONLY the full artifact — "wall." instruments are timing-dependent).
TEST(SecuredWorksite, TelemetryExportCarriesHistograms) {
  SecuredWorksiteConfig config = base_config(8);
  // Fast production so the forwarder starts moving (and passing the
  // workers) well inside the short run.
  config.worksite.harvester_output_m3_per_min = 30.0;
  SecuredWorksite site{config};
  add_workers(site, 3);
  site.run_for(5 * core::kMinute);

  const std::string det = site.telemetry().deterministic_json();
  EXPECT_NE(det.find("\"worksite.separation_m\""), std::string::npos);
  EXPECT_EQ(det.find("wall."), std::string::npos);

  const std::string full = site.telemetry().to_json();
  EXPECT_NE(full.find("\"worksite.separation_m\""), std::string::npos);
  EXPECT_NE(full.find("\"wall.worksite_step_us\""), std::string::npos);
  EXPECT_NE(full.find("\"wall.secured_step_us\""), std::string::npos);

  // Both histograms actually received samples; the separation histogram
  // is the store the worksite's metrics read.
  obs::Registry& reg = site.telemetry().registry();
  EXPECT_EQ(reg.histogram("worksite.separation_m", 0, 1, 1).count(),
            site.worksite().metrics().separation_samples);
  EXPECT_GT(site.worksite().metrics().separation_samples, 0u);
  EXPECT_GT(reg.histogram("wall.secured_step_us", 0, 1, 1).count(), 0u);
}

TEST(SecuredWorksite, RunsAndMovesLogs) {
  SecuredWorksite site{base_config(1)};
  site.run_for(20 * core::kMinute);
  EXPECT_GT(site.worksite().delivered_m3(), 0.0);
}

TEST(SecuredWorksite, DroneReportsFlowOverSecureChannel) {
  SecuredWorksite site{base_config(2)};
  add_workers(site, 3);
  site.run_for(5 * core::kMinute);
  EXPECT_GT(site.security_metrics().detection_reports_sent, 0u);
  EXPECT_GT(site.security_metrics().detection_reports_accepted, 0u);
  EXPECT_EQ(site.security_metrics().spoofed_messages_accepted, 0u);
}

TEST(SecuredWorksite, EncountersProduceDetections) {
  SecuredWorksite site{base_config(3)};
  add_workers(site, 4);
  site.run_for(15 * core::kMinute);
  const SafetyOutcome& outcome = site.safety_outcome();
  EXPECT_GT(outcome.encounters, 0u);
  EXPECT_GT(outcome.time_to_detect_ms.size(), 0u);
}

TEST(SecuredWorksite, DroneImprovesZoneCoverage) {
  // The Fig. 2 claim, as a testable property over matched seeds: per-step
  // coverage of people inside the warning zone is higher with the drone.
  std::uint64_t zone_with = 0, covered_with = 0, zone_without = 0,
                covered_without = 0;
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    SecuredWorksiteConfig with_drone = base_config(seed);
    with_drone.worksite.forest.boulders_per_hectare = 60;
    SecuredWorksiteConfig no_drone = with_drone;
    no_drone.drone_enabled = false;

    SecuredWorksite a{with_drone};
    add_workers(a, 4);
    a.run_for(10 * core::kMinute);
    zone_with += a.safety_outcome().person_zone_steps;
    covered_with += a.safety_outcome().person_covered_steps;

    SecuredWorksite b{no_drone};
    add_workers(b, 4);
    b.run_for(10 * core::kMinute);
    zone_without += b.safety_outcome().person_zone_steps;
    covered_without += b.safety_outcome().person_covered_steps;
  }
  ASSERT_GT(zone_with, 0u);
  ASSERT_GT(zone_without, 0u);
  const double cov_with = static_cast<double>(covered_with) / zone_with;
  const double cov_without = static_cast<double>(covered_without) / zone_without;
  EXPECT_GE(cov_with, cov_without);
}

TEST(SecuredWorksite, PlaintextSpoofedEstopAccepted) {
  SecuredWorksiteConfig config = base_config(5);
  config.secure_links = false;
  config.ids_enabled = false;
  SecuredWorksite site{config};
  site.run_for(30 * core::kSecond);

  auto& attacker = site.add_attacker({100, 100}, 2);
  attacker.spoof(site.radio(), site.worksite().clock().now(), 3 /*operator*/,
                 net::MessageType::kEstopCommand, net::EstopBody{1, 0}.encode(),
                 site.forwarder_node());
  site.run_for(5 * core::kSecond);

  EXPECT_GT(site.security_metrics().spoofed_messages_accepted, 0u);
  EXPECT_TRUE(site.worksite().machine(site.forwarder_id())->stopped());
}

TEST(SecuredWorksite, SecureLinksRejectSpoofedEstop) {
  SecuredWorksiteConfig config = base_config(6);
  config.secure_links = true;
  config.ids_enabled = false;  // isolate the crypto defence
  SecuredWorksite site{config};
  site.run_for(30 * core::kSecond);

  auto& attacker = site.add_attacker({100, 100}, 2);
  attacker.spoof(site.radio(), site.worksite().clock().now(), 3,
                 net::MessageType::kEstopCommand, net::EstopBody{1, 0}.encode(),
                 site.forwarder_node());
  site.run_for(5 * core::kSecond);

  EXPECT_EQ(site.security_metrics().spoofed_messages_accepted, 0u);
  EXPECT_FALSE(site.worksite().machine(site.forwarder_id())->stopped());
}

TEST(SecuredWorksite, ReplayedDetectionReportRejectedBySession) {
  SecuredWorksiteConfig config = base_config(7);
  config.secure_links = true;
  config.ids_enabled = false;
  SecuredWorksite site{config};
  add_workers(site, 3);
  site.run_for(2 * core::kMinute);
  const auto rejected_before = site.security_metrics().detection_reports_rejected;

  auto& attacker = site.add_attacker({100, 100}, 2);
  // Replay any captured drone frame: the record layer must refuse it.
  int replays = 0;
  const NodeId forwarder = site.forwarder_node();
  auto is_drone_record = [forwarder](const net::Frame& f) {
    return f.dst == forwarder;  // drone -> forwarder records
  };
  for (int i = 0; i < 10; ++i) {
    if (attacker.replay_latest(site.radio(), site.worksite().clock().now(),
                               is_drone_record)) {
      ++replays;
    }
    site.run_for(core::kSecond);
  }
  ASSERT_GT(replays, 0);
  EXPECT_GT(site.security_metrics().detection_reports_rejected, rejected_before);
}

TEST(SecuredWorksite, JammingDegradesForwarderViaCoverLoss) {
  SecuredWorksiteConfig config = base_config(8);
  config.monitor.cover_timeout = 2 * core::kSecond;
  SecuredWorksite site{config};
  site.run_for(1 * core::kMinute);  // cover established

  net::Jammer jammer;
  jammer.position = site.worksite().machine(site.forwarder_id())->position();
  jammer.radius_m = 1000.0;  // blanket the site
  jammer.effectiveness = 1.0;
  jammer.active = true;
  site.radio().add_jammer(jammer);
  site.run_for(10 * core::kSecond);

  EXPECT_GE(site.monitor().stats().cover_losses, 1u);
  const auto mode = site.worksite().machine(site.forwarder_id())->mode();
  EXPECT_TRUE(mode == sim::DriveMode::kDegraded || mode == sim::DriveMode::kStopped);
}

TEST(SecuredWorksite, IdsFlagsFloodAttack) {
  SecuredWorksiteConfig config = base_config(9);
  SecuredWorksite site{config};
  site.run_for(30 * core::kSecond);

  auto& attacker = site.add_attacker({100, 100}, 2);
  for (int burst = 0; burst < 10; ++burst) {
    attacker.spoof(site.radio(), site.worksite().clock().now(), 2,
                   net::MessageType::kHeartbeat, {}, NodeId::invalid());
  }
  attacker.flood(site.radio(), site.worksite().clock().now(), kRadioChannel, 300);
  site.run_for(5 * core::kSecond);
  EXPECT_GT(site.ids().total_alerts(), 0u);
}

TEST(SecuredWorksite, GhostDetectionsCauseSpuriousStops) {
  SecuredWorksiteConfig config = base_config(10);
  SecuredWorksite site{config};
  site.run_for(30 * core::kSecond);
  const auto stops_before = site.monitor().stats().estops;

  sensors::SensorAttack attack;
  attack.ghosts = 4;
  attack.ghost_radius_m = 9.0;  // inside the critical zone
  site.attack_forwarder_sensor(attack);
  site.run_for(10 * core::kSecond);
  EXPECT_GT(site.monitor().stats().estops, stops_before);
}

// The drone's enrolment and the handshakes wait for the first step
// (DESIGN.md §31). Construction records no flight event; the first step
// records one "handshake-ok" per forwarder at t = 0, in unit order, as
// the first events of the session, where construction used to put them.
TEST(SecuredWorksite, FirstStepEstablishesLinks) {
  SecuredWorksiteConfig config = base_config(12);
  config.forwarder_count = 3;
  SecuredWorksite site{config};
  add_workers(site, 2);
  const obs::FlightRecorder& rec = site.telemetry().recorder();
  EXPECT_EQ(rec.total_recorded(), 0u);

  site.step();
  std::vector<obs::FlightEvent> events;
  rec.for_each([&](const obs::FlightEvent& e) { events.push_back(e); });
  ASSERT_GE(events.size(), config.forwarder_count);
  const std::uint64_t senders[] = {1, 11, 12};
  for (std::size_t i = 0; i < config.forwarder_count; ++i) {
    SCOPED_TRACE("unit " + std::to_string(i));
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].time, 0);
    EXPECT_EQ(events[i].category, "secure");
    EXPECT_EQ(events[i].code, "handshake-ok");
    EXPECT_EQ(events[i].subject, senders[i]);
    EXPECT_EQ(events[i].a, 2u);  // the drone
  }
  std::size_t secure_events = 0;
  for (const obs::FlightEvent& e : events) secure_events += e.category == "secure";
  EXPECT_EQ(secure_events, config.forwarder_count);

  // Later steps establish nothing more.
  site.run_for(5 * core::kSecond);
  secure_events = 0;
  rec.for_each([&](const obs::FlightEvent& e) { secure_events += e.category == "secure"; });
  EXPECT_EQ(secure_events, config.forwarder_count);
}

// establish() is idempotent: calling it before the first step changes no
// byte of what the session exports.
TEST(SecuredWorksite, EarlyEstablishExportsSameBytes) {
  SecuredWorksiteConfig config = base_config(13);
  config.forwarder_count = 2;
  SecuredWorksite early{config};
  SecuredWorksite lazy{config};
  add_workers(early, 2);
  add_workers(lazy, 2);
  early.establish();
  early.establish();
  early.run_for(20 * core::kSecond);
  lazy.run_for(20 * core::kSecond);
  EXPECT_GT(early.security_metrics().detection_reports_accepted, 0u);
  EXPECT_EQ(early.telemetry().deterministic_json(), lazy.telemetry().deterministic_json());
}

TEST(SecuredWorksite, DeterministicAcrossRuns) {
  auto run = [] {
    SecuredWorksite site{base_config(11)};
    site.worksite().add_worker("w", {80, 60}, {80, 80});
    site.run_for(3 * core::kMinute);
    return std::make_tuple(site.worksite().delivered_m3(),
                           site.security_metrics().detection_reports_sent,
                           site.safety_outcome().encounters);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace agrarsec::integration
