// Corridor-departure experiment: GNSS spoofing walks an autonomous
// forwarder off its extraction corridor (the "gnss-spoof-walkoff" threat
// and "corridor-departure" hazard of the co-analysis), and the
// plausibility monitor (GNSS/odometry cross-check) restores the safe
// state. The navigation loop believes the GNSS fix; a slow spoof drift
// therefore translates 1:1 into physical cross-track error until the
// innovation gate fires.
#include <cstdio>
#include <string>

#include "sensors/gnss.h"
#include "sim/machine.h"

#include "obs/telemetry.h"

using namespace agrarsec;

namespace {

struct CorridorResult {
  double max_cross_track = 0.0;    ///< worst physical deviation (m)
  double final_cross_track = 0.0;
  bool stopped_by_monitor = false;
  core::SimTime detection_time = -1;
};

/// Follows a straight corridor along +x at y=0 for `duration`, navigating
/// on GNSS fixes. Dead reckoning integrates commanded motion and is
/// periodically used by the plausibility monitor (when enabled).
CorridorResult drive_corridor(const sensors::GnssAttack& attack, bool monitor_on,
                              core::SimDuration duration, std::uint64_t seed) {
  sim::MachineConfig machine_config;
  sim::Machine forwarder{MachineId{1}, sim::MachineKind::kForwarder, "f1",
                         {0, 0}, machine_config};
  sensors::GnssReceiver gnss{SensorId{1},
                             sensors::GnssConfig{.noise_sigma_m = 0.5,
                                                 .canopy_factor = 1.5,
                                                 .fix_probability = 0.99}};
  sensors::GnssReceiver attacked = gnss;
  attacked.set_attack(attack);
  sensors::GnssPlausibilityMonitor monitor{8.0};
  core::Rng rng{seed};

  // Dead reckoning state: starts aligned with truth and accumulates the
  // machine's own odometry (in the simulator, odometry is exact, so dead
  // reckoning tracks truth with only integration drift we model as zero —
  // conservative *against* the defence, since real odometry drifts).
  core::Vec2 dead_reckoned = forwarder.position();
  core::Vec2 last_true = forwarder.position();

  CorridorResult result;
  const core::SimDuration step = 100;
  for (core::SimTime now = 0; now < duration; now += step) {
    // Navigation cycle at 1 Hz: fix -> believed position -> steer to the
    // corridor point 25 m ahead *of the believed position*.
    if (now % core::kSecond == 0) {
      const auto fix = attacked.fix(forwarder.position(), now, rng);
      if (fix) {
        if (monitor_on && monitor.check(*fix, dead_reckoned)) {
          // Innovation gate fired: navigation integrity lost -> safe stop.
          forwarder.emergency_stop(true);
          result.stopped_by_monitor = true;
          if (result.detection_time < 0) result.detection_time = now;
        } else {
          const core::Vec2 believed = fix->position;
          // Corridor point ahead, expressed relative to belief. The
          // command "go to (x+25, 0)" lands at a physically shifted spot
          // when the belief is shifted.
          const core::Vec2 target{believed.x + 25.0, 0.0};
          const core::Vec2 offset = target - believed;  // intended motion
          forwarder.head_to(forwarder.position() + offset);
        }
      }
    }

    forwarder.step(step);
    dead_reckoned = dead_reckoned + (forwarder.position() - last_true);
    last_true = forwarder.position();

    const double cross_track = std::abs(forwarder.position().y);
    result.max_cross_track = std::max(result.max_cross_track, cross_track);
  }
  result.final_cross_track = std::abs(forwarder.position().y);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  agrarsec::obs::consume_artifact_dir_flag(argc, argv);
  // Writes bench_gnss_corridor.telemetry.json (registry + wall time) at exit.
  agrarsec::obs::BenchArtifact artifact{"bench_gnss_corridor"};

  constexpr core::SimDuration kRun = 4 * core::kMinute;

  std::printf("=== GNSS spoofing vs corridor keeping ===\n");
  std::printf("straight 25 m-lookahead corridor follow, %lld sim-minutes\n\n",
              static_cast<long long>(kRun / core::kMinute));
  std::printf("%-34s %-10s %12s %12s %10s\n", "attack", "monitor", "max-xtrack",
              "final-xtrack", "detected");
  std::printf("--------------------------------------------------------------------"
              "------\n");

  struct Case {
    const char* name;
    sensors::GnssAttack attack;
  };
  // Spoof drift pushes the *believed* position along +y, so the controller
  // steers the machine to -y: physical corridor departure.
  sensors::GnssAttack honest{};
  sensors::GnssAttack jump{};
  jump.active_spoof = true;
  jump.spoof_offset = {0.0, 40.0};
  sensors::GnssAttack creep{};
  creep.active_spoof = true;
  creep.spoof_drift_mps = 0.15;
  creep.spoof_drift_dir = {0.0, 1.0};  // push belief off-corridor

  const Case cases[] = {{"none", honest},
                        {"jump spoof (+40 m)", jump},
                        {"slow walk-off (0.15 m/s drift)", creep}};

  for (const Case& c : cases) {
    for (const bool monitor_on : {false, true}) {
      const CorridorResult r = drive_corridor(c.attack, monitor_on, kRun, 99);
      std::printf("%-34s %-10s %10.1fm %10.1fm %10s\n", c.name,
                  monitor_on ? "on" : "off", r.max_cross_track,
                  r.final_cross_track,
                  r.stopped_by_monitor
                      ? (std::to_string(r.detection_time / core::kSecond) + "s").c_str()
                      : "-");
    }
  }

  std::printf("\nshape check: without the plausibility monitor, the jump spoof\n"
              "yanks the machine ~40 m off the corridor and the slow walk-off\n"
              "accumulates unboundedly; with the GNSS/odometry gate the jump is\n"
              "caught at once and the creep at the gate radius — the machine\n"
              "stops inside (or just outside) the cleared corridor. This is the\n"
              "'gnss-spoof-walkoff -> corridor-departure' edge of the\n"
              "co-analysis, closed by the 'gnss-plausibility' control.\n");
  return 0;
}
