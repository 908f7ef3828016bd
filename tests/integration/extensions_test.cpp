// Integration coverage for the platform extensions: audit trail,
// emergent-behaviour monitoring, SOTIF evidence collection and channel
// agility.
#include <gtest/gtest.h>

#include "integration/secured_worksite.h"

namespace agrarsec::integration {
namespace {

SecuredWorksiteConfig occluded_config(std::uint64_t seed) {
  SecuredWorksiteConfig config;
  config.seed = seed;
  config.worksite.forest.boulders_per_hectare = 64;
  config.worksite.forest.brush_per_hectare = 96;
  config.worksite.forest.boulder_height_mean = 2.2;
  config.worksite.forest.brush_height_mean = 1.8;
  return config;
}

TEST(Extensions, AuditLogRecordsEstops) {
  SecuredWorksite site{occluded_config(31)};
  for (int i = 0; i < 3; ++i) {
    site.worksite().add_worker("w" + std::to_string(i), {70.0 + 10 * i, 60},
                               {85, 85});
  }
  site.run_for(10 * core::kMinute);
  ASSERT_GT(site.monitor().stats().estops, 0u);
  EXPECT_GE(site.audit().by_category("estop").size(),
            site.monitor().stats().estops);
  // The chain verifies against the signed checkpoint with the machine's
  // public key only.
  const auto broken = secure::AuditLog::verify(
      site.audit().entries(), site.audit().checkpoint(), site.audit().public_key());
  EXPECT_FALSE(broken.has_value());
  EXPECT_GT(site.audit().size(), 0u);
}

TEST(Extensions, AuditLogRecordsDegrades) {
  SecuredWorksiteConfig config = occluded_config(32);
  config.monitor.cover_timeout = 2 * core::kSecond;
  SecuredWorksite site{config};
  site.run_for(core::kMinute);

  net::Jammer jammer;
  jammer.position = {150, 150};
  jammer.radius_m = 1000.0;
  jammer.effectiveness = 1.0;
  jammer.active = true;
  site.radio().add_jammer(jammer);
  site.run_for(10 * core::kSecond);
  EXPECT_FALSE(site.audit().by_category("degraded").empty());
}

TEST(Extensions, EmergentOscillationUnderGhostAttack) {
  // Ghost injection causes repeated stop/restart cycles — an emergent
  // stop-start oscillation no single constituent intends.
  SecuredWorksiteConfig config = occluded_config(33);
  config.monitor.restart_delay = 2 * core::kSecond;
  config.fusion.freshness_window = 500;  // tracks die quickly once clear
  SecuredWorksite site{config};
  site.run_for(30 * core::kSecond);

  // Intermittent ghost injection (relay attacker pulsing the emitter):
  // each pulse stops the machine, each gap lets it restart.
  sensors::SensorAttack on;
  on.ghosts = 2;
  on.ghost_radius_m = 9.0;
  const sensors::SensorAttack off{};
  for (int cycle = 0; cycle < 8; ++cycle) {
    site.attack_forwarder_sensor(on);
    site.run_for(3 * core::kSecond);
    site.attack_forwarder_sensor(off);
    site.run_for(5 * core::kSecond);
  }

  EXPECT_GE(site.monitor().stats().estops, 4u);
  EXPECT_GE(site.emergent().count("stop-start-oscillation"), 1u);
}

TEST(Extensions, NoEmergentFindingsInCleanRun) {
  SecuredWorksite site{occluded_config(34)};
  site.run_for(5 * core::kMinute);
  EXPECT_EQ(site.emergent().count("stop-start-oscillation"), 0u);
  EXPECT_EQ(site.emergent().count("cascade-degradation"), 0u);
}

TEST(Extensions, SotifAttributesBlindSteps) {
  SecuredWorksiteConfig config = occluded_config(35);
  config.drone_enabled = false;  // force ground-level blind spots
  SecuredWorksite site{config};
  for (int i = 0; i < 4; ++i) {
    site.worksite().add_worker("w" + std::to_string(i), {70.0 + 10 * i, 60},
                               {85, 85});
  }
  site.run_for(10 * core::kMinute);

  const auto& sotif = site.sotif();
  // Blind steps occurred and were attributed to concrete conditions.
  std::uint64_t attributed = 0;
  for (const auto& condition : sotif.conditions()) {
    attributed += sotif.evidence(condition.id).encounters;
  }
  const auto blind = site.safety_outcome().person_zone_steps -
                     site.safety_outcome().person_covered_steps;
  EXPECT_EQ(attributed, blind);
  // Occlusion conditions (not just random dropouts) are present.
  const auto occluded = sotif.evidence("occlusion-boulder").encounters +
                        sotif.evidence("occlusion-brush").encounters +
                        sotif.evidence("occlusion-stems").encounters +
                        sotif.evidence("occlusion-terrain").encounters;
  EXPECT_GT(occluded, 0u);
  // All conditions seen were known at design time (no area-3 surprises in
  // this catalogue-complete setup).
  const auto census = sotif.census();
  EXPECT_EQ(census.unknown_safe + census.unknown_hazardous, 0u);
}

TEST(Extensions, SotifWeatherAttribution) {
  SecuredWorksiteConfig config = occluded_config(36);
  config.drone_enabled = false;
  config.worksite.weather = sim::Weather::kFog;
  SecuredWorksite site{config};
  for (int i = 0; i < 3; ++i) {
    site.worksite().add_worker("w" + std::to_string(i), {70.0 + 10 * i, 60},
                               {85, 85});
  }
  site.run_for(5 * core::kMinute);
  const auto blind = site.safety_outcome().person_zone_steps -
                     site.safety_outcome().person_covered_steps;
  if (blind > 0) {
    EXPECT_EQ(site.sotif().evidence("weather-fog").encounters, blind);
  }
}

TEST(Extensions, FrequencyHoppingChannelsVary) {
  SecuredWorksiteConfig config;
  config.frequency_hopping = true;
  config.hop_channels = 8;
  SecuredWorksite site{config};
  std::set<std::uint32_t> seen;
  for (core::SimTime t = 0; t < 10 * core::kSecond; t += 200) {
    seen.insert(site.channel_at(t));
  }
  EXPECT_GE(seen.size(), 4u);
  for (std::uint32_t ch : seen) {
    EXPECT_GE(ch, kRadioChannel);
    EXPECT_LT(ch, kRadioChannel + config.hop_channels);
  }
  // Constant channel without hopping.
  SecuredWorksiteConfig fixed;
  SecuredWorksite site2{fixed};
  EXPECT_EQ(site2.channel_at(0), site2.channel_at(12345));
}

TEST(Extensions, HoppingDefeatsNarrowbandJammer) {
  auto run = [](bool hopping) {
    SecuredWorksiteConfig config;
    config.seed = 37;
    config.frequency_hopping = hopping;
    config.monitor.cover_timeout = 2 * core::kSecond;
    SecuredWorksite site{config};
    site.run_for(30 * core::kSecond);

    net::Jammer jammer;  // narrowband: only the base channel
    jammer.position = {150, 150};
    jammer.radius_m = 1000.0;
    jammer.effectiveness = 1.0;
    jammer.channel = kRadioChannel;
    jammer.active = true;
    site.radio().add_jammer(jammer);
    site.run_for(core::kMinute);
    return site.monitor().cover_fresh(site.worksite().clock().now());
  };
  EXPECT_FALSE(run(false));  // fixed channel: cover killed
  EXPECT_TRUE(run(true));    // hopping: most slots get through
}

TEST(Extensions, GhostStopsAppearInAuditTrail) {
  SecuredWorksiteConfig config = occluded_config(38);
  SecuredWorksite site{config};
  site.run_for(30 * core::kSecond);
  sensors::SensorAttack attack;
  attack.ghosts = 4;
  attack.ghost_radius_m = 9.0;
  site.attack_forwarder_sensor(attack);
  site.run_for(20 * core::kSecond);
  EXPECT_FALSE(site.audit().by_category("estop").empty());
}


TEST(Extensions, FloodCollapsesIntoFewIncidents) {
  SecuredWorksiteConfig config;
  config.seed = 39;
  SecuredWorksite site{config};
  site.run_for(30 * core::kSecond);

  auto& attacker = site.add_attacker({150, 150}, 2);
  attacker.flood(site.radio(), site.worksite().clock().now(), 3, 400);
  site.run_for(10 * core::kSecond);

  // Hundreds of alerts, but only a handful of operator-facing incidents.
  EXPECT_GT(site.ids().total_alerts(), 100u);
  EXPECT_LE(site.incidents().incidents().size(), 5u);
  EXPECT_GE(site.incidents().incidents().size(), 1u);

  // A quiet stretch closes them.
  site.run_for(core::kMinute);
  EXPECT_EQ(site.incidents().open_count(), 0u);
}


TEST(Extensions, FleetOfForwardersOperates) {
  SecuredWorksiteConfig config;
  config.seed = 40;
  config.forwarder_count = 3;
  SecuredWorksite site{config};
  site.worksite().add_worker("w0", {80, 60}, {90, 90});
  site.worksite().add_worker("w1", {95, 70}, {90, 90});
  ASSERT_EQ(site.forwarder_count(), 3u);
  // Distinct machines and nodes.
  EXPECT_NE(site.forwarder_id(0), site.forwarder_id(1));
  EXPECT_NE(site.forwarder_id(1), site.forwarder_id(2));

  site.run_for(10 * core::kMinute);
  // The fleet moves more volume than a single machine on the same site.
  SecuredWorksiteConfig solo = config;
  solo.forwarder_count = 1;
  SecuredWorksite single{solo};
  single.worksite().add_worker("w0", {80, 60}, {90, 90});
  single.worksite().add_worker("w1", {95, 70}, {90, 90});
  single.run_for(10 * core::kMinute);
  EXPECT_GE(site.worksite().delivered_m3(), single.worksite().delivered_m3());
  // All fleet members received authenticated drone cover.
  EXPECT_GT(site.security_metrics().detection_reports_sent, 0u);
  EXPECT_EQ(site.security_metrics().spoofed_messages_accepted, 0u);
}

TEST(Extensions, FleetMonitorsIndependent) {
  SecuredWorksiteConfig config;
  config.seed = 41;
  config.forwarder_count = 2;
  SecuredWorksite site{config};
  site.run_for(10 * core::kSecond);

  // Ghost-attack only the second machine's sensor: it stops, the primary
  // keeps operating.
  sensors::SensorAttack attack;
  attack.ghosts = 4;
  attack.ghost_radius_m = 9.0;
  site.attack_forwarder_sensor(attack, 1);
  site.run_for(10 * core::kSecond);

  EXPECT_GT(site.monitor(1).stats().estops, 0u);
  EXPECT_EQ(site.monitor(0).stats().estops, 0u);
  EXPECT_TRUE(site.worksite().machine(site.forwarder_id(1))->stopped());
  EXPECT_FALSE(site.worksite().machine(site.forwarder_id(0))->stopped());
}

}  // namespace
}  // namespace agrarsec::integration
