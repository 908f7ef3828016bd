// Fleet-scale hot-loop baseline with --threads and --sessions axes.
// Steps the 16-machine Figure-1-style site (2 harvesters, 12 forwarders,
// 2 drones, 48 workers, windthrow hazards on) and a 4x larger preset, and
// reports their steps/sec. A worksite steps on one thread; parallelism
// lives one level up, so the --sessions axis measures a FleetService
// stepping N independent secured worksite sessions, serial vs batched
// across a pool of --threads shards, as session-steps/sec.
//
// Determinism is part of the contract: every session's deterministic
// telemetry export must be byte-identical across service thread counts,
// and session 0 must match a solo run outside any fleet. The batched
// line-of-sight resolve is spot-checked against the per-ray path. Any
// mismatch fails the benchmark (non-zero exit) — a fast wrong simulation
// is not an optimisation.
//
// Lines of the form "BENCH name=value" are machine-readable; CI captures
// them into BENCH_baseline.json and fails on large regressions
// (scripts/bench_gate.py).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "net/radio.h"
#include "obs/telemetry.h"
#include "service/fleet_service.h"
#include "sim/worksite.h"

using namespace agrarsec;

namespace {

/// Population/extent preset for the worksite axis. The default preset is
/// the 16-machine Figure-1-style site every baseline key gates on; the
/// large preset (4x machines, 4x workers, 4x area) is the fleet-scale
/// configuration the SoA hot-state work targets.
struct SitePreset {
  const char* name;
  std::size_t harvesters;
  std::size_t forwarders;
  std::size_t drones;
  std::size_t workers;
  double extent_m;
  std::size_t worker_cols;  ///< worker-anchor grid width (keeps anchors in bounds)
};
constexpr SitePreset kDefaultPreset{"default", 2, 12, 2, 48, 500.0, 8};
constexpr SitePreset kLargePreset{"large", 4, 48, 8, 192, 1000.0, 16};

sim::WorksiteConfig site_config(const SitePreset& preset) {
  sim::WorksiteConfig config;
  config.forest.bounds = {{0, 0}, {preset.extent_m, preset.extent_m}};
  config.forest.trees_per_hectare = 250;
  config.landing_area = {40, 40};
  // Enough production and short enough handling times that the whole
  // fleet keeps moving — an idle fleet would not exercise the hot loop.
  config.harvester_output_m3_per_min = 60.0;
  config.load_time = 20 * core::kSecond;
  config.unload_time = 15 * core::kSecond;
  // Windthrow on: planner-cache generation invalidation is part of the
  // steady-state load, not a cold path.
  config.weather = sim::Weather::kRain;
  config.windthrow_rate_per_hour = 6.0;
  return config;
}

void populate(sim::Worksite& site, const SitePreset& preset) {
  const double mid = preset.extent_m / 2.0;
  std::vector<MachineId> forwarders;
  for (std::size_t i = 0; i < preset.harvesters; ++i) {
    site.add_harvester("h" + std::to_string(i),
                       {mid + 100.0 * static_cast<double>(i % 4), mid});
  }
  for (std::size_t i = 0; i < preset.forwarders; ++i) {
    forwarders.push_back(
        site.add_forwarder("f" + std::to_string(i),
                           {60.0 + 12.0 * static_cast<double>(i % 8),
                            60.0 + 15.0 * static_cast<double>(i / 8)}));
  }
  for (std::size_t i = 0; i < preset.drones; ++i) {
    const MachineId drone =
        site.add_drone("d" + std::to_string(i), {60.0 + 30.0 * static_cast<double>(i), 50.0});
    site.set_drone_orbit(drone, forwarders[i], 25.0);
  }
  for (std::size_t i = 0; i < preset.workers; ++i) {
    const core::Vec2 anchor{
        80.0 + 45.0 * static_cast<double>(i % preset.worker_cols),
        80.0 + 45.0 * static_cast<double>(i / preset.worker_cols)};
    site.add_worker("w" + std::to_string(i), anchor, anchor);
  }
}

struct RunResult {
  double rate = 0.0;
  sim::Worksite::Metrics metrics;
};

RunResult run_worksite(std::uint64_t steps, const SitePreset& preset,
                       bool write_artifact = false) {
  sim::Worksite site{site_config(preset), 42};
  populate(site, preset);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t s = 0; s < steps; ++s) site.step();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  RunResult r;
  r.rate = static_cast<double>(steps) / secs;
  r.metrics = site.metrics();
  if (write_artifact) {
    obs::write_bench_artifact(site.telemetry(), "bench_fleet_scale");
  }
  return r;
}

// --- fleet-service --sessions axis -----------------------------------------

/// One fleet session: the full secured stack over a thinner stand, busy
/// enough that every session exercises sensing, radio and safety per step.
integration::SecuredWorksiteConfig fleet_session_config() {
  integration::SecuredWorksiteConfig config;
  config.worksite.forest.trees_per_hectare = 120;
  config.worksite.harvester_output_m3_per_min = 30.0;
  config.worksite.load_time = 15 * core::kSecond;
  config.worksite.unload_time = 10 * core::kSecond;
  return config;
}

struct FleetRunResult {
  double rate = 0.0;  ///< aggregate session-steps/sec across the fleet
  std::vector<std::string> session_exports;  ///< deterministic, key order
  std::uint64_t sessions_stepped = 0;
};

FleetRunResult run_fleet(std::size_t threads, std::size_t sessions,
                         std::uint64_t steps, std::size_t artifact_count) {
  service::FleetServiceConfig config;
  config.threads = threads;
  config.fleet_seed = 4242;
  service::FleetService fleet{config};

  std::vector<service::SessionId> ids;
  for (std::uint64_t key = 0; key < sessions; ++key) {
    const service::SessionId id =
        fleet.create_session_keyed(fleet_session_config(), key);
    ids.push_back(id);
    integration::SecuredWorksite& site = *fleet.session(id);
    for (int w = 0; w < 2; ++w) {
      site.worksite().add_worker("w" + std::to_string(w),
                                 {75.0 + 10.0 * w, 60.0}, {80, 80});
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  fleet.step_all(steps);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  FleetRunResult r;
  r.rate = static_cast<double>(sessions) * static_cast<double>(steps) / secs;
  r.sessions_stepped = steps == 0 ? 0 : fleet.total_session_steps() / steps;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    r.session_exports.push_back(fleet.session_deterministic_json(ids[k]));
    // Per-session telemetry artifacts for CI upload (capped: 64 sessions
    // would flood the artifact store; the first few cover the contract).
    if (k < artifact_count) {
      fleet.session(ids[k])->telemetry().write_json(obs::artifact_path(
          "bench_fleet_scale.session" + std::to_string(k) + ".telemetry.json"));
    }
  }
  return r;
}

// --- batched line-of-sight micro-bench --------------------------------------

struct LosResult {
  double rays_per_sec = 0.0;
  int mismatches = 0;  ///< batch result != per-ray result (spot check)
};

/// Streams perception-shaped sight-line bundles through
/// Terrain::occlusion_cause_batch: 64 sensor frames (half ground-mast,
/// half drone-altitude origins) x 96 targets over a dense stand. Every
/// 17th ray is re-resolved through the per-ray entry point and compared —
/// a batch that is fast but different is a parity failure, same contract
/// as the step benchmarks.
LosResult run_los(std::uint64_t rounds) {
  sim::ForestConfig forest;  // defaults: 500x500, 400 stems/ha, 6 hills
  core::Rng terrain_rng{99};
  const sim::Terrain terrain = sim::Terrain::generate(forest, terrain_rng);

  constexpr std::size_t kFrames = 64;
  constexpr std::size_t kRays = 96;
  core::Rng rng{1234};
  std::vector<core::Vec2> origins(kFrames);
  std::vector<double> agls(kFrames);
  std::vector<std::vector<sim::Terrain::LosTarget>> bundles(kFrames);
  for (std::size_t f = 0; f < kFrames; ++f) {
    origins[f] = {rng.uniform(40.0, 460.0), rng.uniform(40.0, 460.0)};
    agls[f] = (f % 2 == 0) ? 2.5 : 40.0;  // forwarder mast / drone altitude
    bundles[f].resize(kRays);
    for (std::size_t i = 0; i < kRays; ++i) {
      const double angle = rng.uniform(0.0, 6.283185307179586);
      const double dist = rng.uniform(5.0, 90.0);
      core::Vec2 to = origins[f] + core::Vec2{std::cos(angle), std::sin(angle)} * dist;
      to = forest.bounds.clamp(to);
      bundles[f][i] = {to, rng.uniform(1.0, 2.0)};
    }
  }

  LosResult r;
  std::vector<sim::Terrain::OcclusionCause> causes;
  std::uint64_t resolved = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (std::size_t f = 0; f < kFrames; ++f) {
      terrain.occlusion_cause_batch(origins[f], agls[f], bundles[f], causes);
      resolved += causes.size();
      if (round == 0) {
        for (std::size_t i = 0; i < kRays; i += 17) {
          if (causes[i] != terrain.occlusion_cause(origins[f], agls[f],
                                                   bundles[f][i].to_xy,
                                                   bundles[f][i].to_agl)) {
            ++r.mismatches;
            std::printf("  LOS MISMATCH: frame %zu ray %zu batch != per-ray\n",
                        f, i);
          }
        }
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  r.rays_per_sec = static_cast<double>(resolved) / secs;
  std::printf("  %zu frames x %zu rays x %llu rounds in %.3fs -> %.0f rays/sec"
              " (%d spot-check mismatches)\n",
              kFrames, kRays, static_cast<unsigned long long>(rounds), secs,
              r.rays_per_sec, r.mismatches);
  return r;
}

struct RadioResult {
  double rate = 0.0;
  std::uint64_t dropped = 0;  ///< frames lost to loss/collision/jam/drop
};

RadioResult run_radio(std::size_t nodes, std::uint64_t steps) {
  net::RadioConfig config;
  config.latency_jitter = 8;  // non-monotone deliver_at exercises ordering
  net::RadioMedium medium{core::Rng{7}, config};
  std::vector<core::Vec2> positions(nodes);
  std::uint64_t received = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    positions[i] = {static_cast<double>(i % 8) * 40.0,
                    static_cast<double>(i / 8) * 40.0};
    medium.attach(NodeId{i + 1}, [&positions, i] { return positions[i]; },
                  [&received](const net::Frame&, core::SimTime) { ++received; });
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t s = 0; s < steps; ++s) {
    const core::SimTime now = static_cast<core::SimTime>(s) * 100;
    for (std::size_t i = 0; i < nodes; ++i) {
      net::Frame f;
      f.src = NodeId{i + 1};
      f.dst = NodeId::invalid();  // broadcast
      f.channel = static_cast<std::uint32_t>(i % 4);
      medium.send(std::move(f), now);
    }
    medium.step(now);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  RadioResult r;
  r.rate = static_cast<double>(steps) / secs;
  r.dropped = medium.count(net::DeliveryOutcome::kPathLoss) +
              medium.count(net::DeliveryOutcome::kCollision) +
              medium.count(net::DeliveryOutcome::kJammed) +
              medium.count(net::DeliveryOutcome::kDropped);
  std::printf("  %zu nodes broadcasting, %llu steps in %.3fs -> %.0f steps/sec"
              " (%llu deliveries, %llu dropped)\n",
              nodes, static_cast<unsigned long long>(steps), secs, r.rate,
              static_cast<unsigned long long>(received),
              static_cast<unsigned long long>(r.dropped));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  agrarsec::obs::consume_artifact_dir_flag(argc, argv);
  bool quick = false;
  std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::size_t sessions = 0;  // 0 = default per mode (64 full, 8 quick)
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<std::size_t>(std::strtoull(arg.c_str() + 10, nullptr, 10));
      if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
    } else if (arg.rfind("--sessions=", 0) == 0) {
      sessions = static_cast<std::size_t>(std::strtoull(arg.c_str() + 11, nullptr, 10));
    } else if (arg == "--sessions" && i + 1 < argc) {
      sessions = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    }
  }
  if (sessions == 0) sessions = quick ? 8 : 64;

  const std::uint64_t steps =
      static_cast<std::uint64_t>((quick ? 2 : 10) * core::kMinute) / 100;

  std::printf("=== fleet-scale hot-loop benchmark ===\n\n");
  std::printf("worksite [default]: %zu machines (%zuh+%zuf+%zud) + %zu workers,"
              " %llu steps\n",
              kDefaultPreset.harvesters + kDefaultPreset.forwarders +
                  kDefaultPreset.drones,
              kDefaultPreset.harvesters, kDefaultPreset.forwarders,
              kDefaultPreset.drones, kDefaultPreset.workers,
              static_cast<unsigned long long>(steps));

  const RunResult serial = run_worksite(steps, kDefaultPreset, /*write_artifact=*/true);
  std::printf("  %.0f steps/sec\n", serial.rate);
  std::printf("  cross-check: delivered=%.1fm3 cycles=%llu min_sep=%.2fm"
              " windthrow=%llu reuses=%llu\n",
              serial.metrics.delivered_m3,
              static_cast<unsigned long long>(serial.metrics.completed_cycles),
              serial.metrics.min_human_separation,
              static_cast<unsigned long long>(serial.metrics.windthrow_events),
              static_cast<unsigned long long>(serial.metrics.route_reuses));

  // Large preset: the fleet-scale site the SoA hot-state layout targets.
  const std::uint64_t large_steps = quick ? 120 : 600;
  std::printf("\nworksite [large]: %zu machines (%zuh+%zuf+%zud) + %zu workers,"
              " %llu steps\n",
              kLargePreset.harvesters + kLargePreset.forwarders + kLargePreset.drones,
              kLargePreset.harvesters, kLargePreset.forwarders, kLargePreset.drones,
              kLargePreset.workers, static_cast<unsigned long long>(large_steps));
  const RunResult large_serial = run_worksite(large_steps, kLargePreset);
  std::printf("  %.0f steps/sec\n", large_serial.rate);

  // Fleet-service axis: N independent secured-worksite sessions batched
  // across the pool, one session per work item. Aggregate throughput is
  // session-steps/sec; parity is per-session byte-identical deterministic
  // exports between thread counts AND against a session running alone
  // (fleet size must be unobservable from inside a session).
  const std::uint64_t fleet_steps = quick ? 50 : 200;
  std::printf("\nfleet service: %zu sessions x %llu steps\n", sessions,
              static_cast<unsigned long long>(fleet_steps));
  const FleetRunResult fleet_serial = run_fleet(1, sessions, fleet_steps, 0);
  std::printf("  threads=1:  %.0f session-steps/sec\n", fleet_serial.rate);
  const FleetRunResult fleet_sharded =
      run_fleet(threads, sessions, fleet_steps, std::min<std::size_t>(sessions, 8));
  const double fleet_speedup = fleet_sharded.rate / fleet_serial.rate;
  std::printf("  threads=%zu: %.0f session-steps/sec (%.2fx)\n", threads,
              fleet_sharded.rate, fleet_speedup);
  const FleetRunResult fleet_solo = run_fleet(1, 1, fleet_steps, 0);

  int fleet_mismatches = 0;
  for (std::size_t k = 0; k < sessions; ++k) {
    if (fleet_serial.session_exports[k] != fleet_sharded.session_exports[k]) {
      ++fleet_mismatches;
      std::printf("  FLEET PARITY MISMATCH: session %zu export differs"
                  " (threads=1 vs threads=%zu)\n", k, threads);
    }
  }
  if (fleet_solo.session_exports[0] != fleet_serial.session_exports[0]) {
    ++fleet_mismatches;
    std::printf("  FLEET PARITY MISMATCH: session 0 alone differs from"
                " session 0 in a %zu-session fleet\n", sessions);
  }
  std::printf("  parity: %d mismatches (%zu sessions x {threads 1, %zu}, solo"
              " cross-check)\n", fleet_mismatches, sessions, threads);
  int mismatches = fleet_mismatches;

  std::printf("\nbatched line-of-sight resolve, perception-shaped bundles:\n");
  const LosResult los = run_los(quick ? 20 : 100);
  mismatches += los.mismatches;

  std::printf("\nradio medium, jittered broadcast fan-out:\n");
  const RadioResult radio = run_radio(64, quick ? 2000 : 10000);

  // Machine-readable summary for the CI regression gate. Only serial rates
  // gate: the fleet's parallel rate depends on the runner's core count.
  // "*_exact" metrics are deterministic semantics, not rates: bench_gate.py
  // requires them to match the baseline exactly (full-length run) in both
  // directions, so a behaviour change to the planner cache or the radio
  // loss model cannot hide inside the perf tolerance.
  std::printf("\nBENCH worksite_steps_per_sec=%.0f\n", serial.rate);
  std::printf("BENCH worksite_steps_per_sec_large=%.0f\n", large_serial.rate);
  std::printf("BENCH los_rays_per_sec=%.0f\n", los.rays_per_sec);
  std::printf("BENCH parity_mismatches=%d\n", mismatches);
  std::printf("BENCH fleet_session_steps_per_sec=%.0f\n", fleet_serial.rate);
  std::printf("BENCH fleet_session_steps_per_sec_parallel=%.0f\n",
              fleet_sharded.rate);
  std::printf("BENCH fleet_parity_mismatches=%d\n", fleet_mismatches);
  std::printf("BENCH radio_steps_per_sec=%.0f\n", radio.rate);
  if (!quick) {
    const double hit_rate =
        serial.metrics.planner.plans == 0
            ? 0.0
            : static_cast<double>(serial.metrics.planner.cache_hits) /
                  static_cast<double>(serial.metrics.planner.plans);
    std::printf("BENCH planner_cache_hit_rate_exact=%.6f\n", hit_rate);
    std::printf("BENCH fleet_sessions_stepped_exact=%llu\n",
                static_cast<unsigned long long>(fleet_sharded.sessions_stepped));
    std::printf("BENCH radio_dropped_frames_exact=%llu\n",
                static_cast<unsigned long long>(radio.dropped));
  }
  return mismatches == 0 ? 0 : 1;
}
