// Pinned-session exporter for the CI semantic-diff gate: runs one fixed
// (config, seed) FleetService session for a fixed number of steps and
// prints its deterministic telemetry export to stdout. The bytes are the
// contract — scripts/export_diff_gate.py compares them against the
// committed golden (tests/golden/session_export*.json) and fails CI on
// ANY byte change, so a behaviour drift in the sim/security/safety stack
// cannot land silently as "just telemetry noise". Intentional behaviour
// changes re-bless the goldens with --update and the diff shows up in
// review.
//
// The gate pins two variants (argv[1]):
//   base    the original session (golden: session_export.json)
//   attack  + a level-2 attacker running a scripted spoof and replay
//           campaign against the forwarder (golden:
//           session_export.attack.json)
// so drift in the attack-handling code paths is caught even when the
// quiet base session never reaches them.
#include <cstdio>
#include <cstring>
#include <string>

#include "net/attacker.h"
#include "net/message.h"
#include "service/fleet_service.h"

using namespace agrarsec;

namespace {

/// The pinned session configuration: mirror of the bench fleet-session
/// shape (thin stand, busy handling), stepped through a service pool at
/// threads=2, so the export also witnesses the thread-count-invariance
/// contract end to end.
integration::SecuredWorksiteConfig pinned_session_config() {
  integration::SecuredWorksiteConfig config;
  config.worksite.forest.trees_per_hectare = 120;
  config.worksite.harvester_output_m3_per_min = 30.0;
  config.worksite.load_time = 15 * core::kSecond;
  config.worksite.unload_time = 10 * core::kSecond;
  config.worksite.windthrow_rate_per_hour = 4.0;
  config.worksite.weather = sim::Weather::kRain;
  return config;
}

constexpr std::uint64_t kFleetSeed = 4242;
constexpr std::uint64_t kSessionKey = 7;
constexpr std::uint64_t kSteps = 200;
// Attack variant schedule: warm up, then alternate forged e-stops and
// refreshed replays on fixed step indices.
constexpr std::uint64_t kAttackStart = 50;
constexpr std::uint64_t kSpoofPeriod = 10;
constexpr std::uint64_t kReplayPeriod = 7;

}  // namespace

int main(int argc, char** argv) {
  const std::string variant = argc > 1 ? argv[1] : "base";
  const bool attack = variant == "attack";
  if (variant != "base" && !attack) {
    std::fprintf(stderr, "usage: session_export [base|attack]\n");
    return 2;
  }

  service::FleetServiceConfig fleet_config;
  fleet_config.threads = 2;
  fleet_config.fleet_seed = kFleetSeed;
  service::FleetService fleet{fleet_config};

  const service::SessionId id =
      fleet.create_session_keyed(pinned_session_config(), kSessionKey);
  integration::SecuredWorksite& site = *fleet.session(id);
  site.worksite().add_worker("w0", {75.0, 60.0}, {80, 80});
  site.worksite().add_worker("w1", {85.0, 60.0}, {80, 80});

  if (!attack) {
    fleet.step_all(kSteps);
  } else {
    fleet.step_all(kAttackStart);
    net::AttackerNode& attacker = site.add_attacker({60.0, 60.0}, 2);
    const NodeId forwarder = site.forwarder_node();
    for (std::uint64_t step = kAttackStart; step < kSteps; ++step) {
      const core::SimTime now = site.worksite().clock().now();
      if ((step - kAttackStart) % kSpoofPeriod == 0) {
        attacker.spoof(site.radio(), now, 3 /*operator id*/,
                       net::MessageType::kEstopCommand,
                       net::EstopBody{1, 0}.encode(), forwarder);
      }
      if ((step - kAttackStart) % kReplayPeriod == 0) {
        attacker.replay_latest(
            site.radio(), now,
            [forwarder](const net::Frame& f) { return f.dst == forwarder; },
            /*refresh_timestamp=*/true);
      }
      fleet.step_all(1);
    }
  }

  const std::string json = fleet.session_deterministic_json(id);
  std::fwrite(json.data(), 1, json.size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}
