// The two closed-loop workloads: `campaign` (waves of short keyed
// sessions: create, step one sim-minute, export, destroy) and `soak`
// (fleets of sixteen long-lived sessions stepped in 100-tick chunks).
//
// Both report their rates in reference-host terms: each measured time is
// divided by the host's slowdown (see HostSpeed), sampled between the
// timed operations.
#include <algorithm>
#include <memory>

#include "harness/bench.h"
#include "harness/helpers.h"

namespace fleetbench {

using agrarsec::service::FleetService;
using agrarsec::service::FleetServiceConfig;
using agrarsec::service::SessionId;

namespace {

std::unique_ptr<FleetService> make_fleet(std::uint64_t seed, std::size_t threads) {
  FleetServiceConfig config;
  config.threads = threads;
  config.fleet_seed = seed;
  return std::make_unique<FleetService>(config);
}

/// Sum of the service pool's shard busy lanes.
std::uint64_t shard_busy_ns(const FleetService& fleet) {
  const auto& tracer = fleet.telemetry().tracer();
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < tracer.shard_count(); ++s) total += tracer.shard_busy_ns(s);
  return total;
}

/// Wall time of a step_all call, with the traced run's span and shard
/// accounting.
std::uint64_t timed_step_all(FleetService& fleet, std::uint64_t steps, LayerProbe* probe) {
  const std::uint64_t busy0 = probe ? shard_busy_ns(fleet) : 0;
  const std::uint64_t t0 = now_ns();
  fleet.step_all(steps);
  const std::uint64_t ns = now_ns() - t0;
  if (probe) {
    probe->span("service.step_ms", ns);
    probe->note_shard_busy(shard_busy_ns(fleet) - busy0, ns, fleet.shard_count());
  }
  return ns;
}

/// Reports setup_s: process start until now.
void put_setup_s(Report& report) {
  report.put("setup_s", ns_to_ms(now_ns() - g_process_start_ns) / 1000.0, "s");
}

// --- campaign -----------------------------------------------------------------

constexpr std::uint64_t kWaveSessions = 16;
constexpr std::uint64_t kWaveTicks = 600;  // one sim-minute

struct Wave {
  /// Wall time of the wave: creates, step_all, exports and destroys,
  /// without the host probes between them.
  std::uint64_t ns = 0;
  std::vector<std::uint64_t> create_ns;
  std::uint64_t digest = kFnvOffset;
  std::uint64_t failed = 0;
};

/// What a traced run does to one wave beyond its spans.
struct WaveTrace {
  LayerProbe* probe = nullptr;
  bool capture = false;  ///< capture frames and replay sensing
};

/// One campaign wave: create 16 keyed sessions (forwarder count cycling
/// 1-4 by key), step them one sim-minute in one step_all, export each,
/// destroy each. `host`, when given, is sampled between the phases.
Wave run_wave(FleetService& fleet, std::uint64_t wave, std::uint64_t fleet_seed,
              HostSpeed* host = nullptr, const WaveTrace& trace = {}) {
  LayerProbe* probe = trace.probe;
  Wave out;
  const std::uint64_t t_create = now_ns();
  std::vector<SessionId> ids;
  for (std::uint64_t slot = 0; slot < kWaveSessions; ++slot) {
    const std::uint64_t key = wave * kWaveSessions + slot;
    auto config = pinned_shape(1 + key % 4);
    const std::uint64_t t0 = now_ns();
    SessionId id = 0;
    try {
      id = fleet.create_session_keyed(config, key);
    } catch (const std::exception&) {
      ++out.failed;
      out.create_ns.push_back(now_ns() - t0);
      continue;
    }
    const std::uint64_t ns = now_ns() - t0;
    out.create_ns.push_back(ns);
    auto& site = *fleet.session(id);
    add_workers_near_start(site);
    if (probe) {
      probe->span("service.create_ms", ns);
      config.seed = FleetService::derive_session_seed(fleet_seed, key);
      probe->note_config(config);
      if (trace.capture) probe->capture(site);
    }
    ids.push_back(id);
  }
  out.ns += now_ns() - t_create;
  if (host) host->sample();

  out.ns += timed_step_all(fleet, kWaveTicks, probe);
  if (host) host->sample();

  const std::uint64_t t_end = now_ns();
  for (const SessionId id : ids) {
    const std::uint64_t t0 = now_ns();
    const std::string json = fleet.session_deterministic_json(id);
    const std::uint64_t ns = now_ns() - t0;
    if (json.empty()) ++out.failed;
    out.digest = fnv1a(json, out.digest);
    if (probe) {
      probe->span("service.export_ms", ns);
      probe->note_export(json.size());
      if (trace.capture) probe->replay_sensing(*fleet.session(id));
      probe->absorb(*fleet.session(id));
    }
  }
  for (const SessionId id : ids) {
    if (!fleet.destroy_session(id)) ++out.failed;
  }
  out.ns += now_ns() - t_end;
  return out;
}

}  // namespace

Report run_campaign(const RunOptions& options, LayerProbe* probe) {
  Report report;
  const std::size_t threads = fleet_threads();
  // Work is fixed by --seconds (about 1.25 waves per second here), so the
  // export digest is a function of (seed, seconds) alone. Every timed
  // wave has keys of its own.
  const std::uint64_t waves =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(options.seconds) * 5 / 4);

  // Set-up: the service and one untimed wave (wave 0).
  auto fleet = make_fleet(options.seed, threads);
  const Wave setup = run_wave(*fleet, 0, options.seed);
  put_setup_s(report);
  report.check(setup.failed == 0, "campaign: set-up wave failed");
  if (options.setup_only) return report;

  HostSpeed host(threads);
  std::uint64_t timed_ns = 0;
  std::uint64_t last_digest = 0;
  std::vector<double> create_ms;
  report.digest = setup.digest;
  for (std::uint64_t w = 0; w < waves; ++w) {
    // The traced run captures frames on the first wave only.
    const WaveTrace trace{probe, probe != nullptr && w == 0};
    const Wave wave = run_wave(*fleet, 1 + w, options.seed, &host, trace);
    timed_ns += wave.ns;
    for (const std::uint64_t ns : wave.create_ns) create_ms.push_back(ns_to_ms(ns));
    report.digest = fnv1a(hex64(wave.digest), report.digest);
    last_digest = wave.digest;
    report.attempted += kWaveSessions;
    report.failed += wave.failed;
  }

  // Reference: the last wave again on a serial single-thread service must
  // export the same bytes.
  {
    auto serial = make_fleet(options.seed, 1);
    const Wave ref = run_wave(*serial, waves, options.seed);
    report.check(ref.digest == last_digest,
                 "campaign: last wave differs from a serial single-thread reference");
  }
  {
    auto canary = make_fleet(kCanarySeed, 1);
    report.canary_digest = run_wave(*canary, 1, kCanarySeed).digest;
  }

  const double sessions = static_cast<double>(waves * kWaveSessions);
  const double timed_s = static_cast<double>(timed_ns) / 1e9 / host.slowdown();
  report.put("peak_rss_mb", peak_rss_mb(), "MB");
  report.put("sessions_per_s", sessions / timed_s, "1/s");
  // Every session-tick the campaign got through per lifecycle second, so
  // creation counts against it as it does against sessions_per_s.
  report.put("session_steps_per_s", sessions * kWaveTicks / timed_s, "1/s");
  report.put("session_create_ms_p50", median(create_ms), "ms");
  report.put("harness.host_slowdown", host.slowdown(), "ratio");
  return report;
}

// --- soak ---------------------------------------------------------------------

namespace {
constexpr std::uint64_t kSoakSessions = 16;
constexpr std::uint64_t kSoakFleets = 4;
constexpr std::uint64_t kSoakWarmup = 600;
constexpr std::uint64_t kSoakChunk = 100;
/// Soak samples the host after every this many chunks (a sample costs
/// several ms of wall time).
constexpr std::uint64_t kSoakProbeEvery = 4;

/// 16 keyed sessions (keys first_key..first_key+15), 4 forwarders and 8
/// grid-anchored workers each. Returns each create's wall time in ms.
std::vector<double> build_soak_fleet(FleetService& fleet, std::uint64_t fleet_seed,
                                     std::uint64_t first_key, LayerProbe* probe) {
  std::vector<double> create_ms;
  for (std::uint64_t key = first_key; key < first_key + kSoakSessions; ++key) {
    const std::uint64_t t0 = now_ns();
    const SessionId id = fleet.create_session_keyed(pinned_shape(4), key);
    const std::uint64_t ns = now_ns() - t0;
    create_ms.push_back(ns_to_ms(ns));
    auto& site = *fleet.session(id);
    add_workers_on_grid(site, 8);
    if (probe) {
      probe->span("service.create_ms", ns);
      auto config = pinned_shape(4);
      config.seed = FleetService::derive_session_seed(fleet_seed, key);
      probe->note_config(config);
      probe->capture(site);
    }
  }
  return create_ms;
}

/// Export of session key 0 alone on a serial service after `steps`.
std::string lone_session_export(std::uint64_t fleet_seed, std::uint64_t steps) {
  auto serial = make_fleet(fleet_seed, 1);
  const SessionId id = serial->create_session_keyed(pinned_shape(4), 0);
  add_workers_on_grid(*serial->session(id), 8);
  serial->step_all(steps);
  return serial->session_deterministic_json(id);
}
}  // namespace

Report run_soak(const RunOptions& options, LayerProbe* probe) {
  Report report;
  const std::size_t threads = fleet_threads();
  // About 15 chunks of 100 ticks per second here, spread over the fleets.
  const std::uint64_t chunks = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(options.seconds) * 15 / kSoakFleets);
  const std::uint64_t expected_steps = kSoakWarmup + chunks * kSoakChunk;

  // kSoakFleets fleets, one after another, each with keys of its own: its
  // creation and warm-up (the first fleet's is the run's set-up), the
  // chunks, then export and destroy. Averaging over more forests keeps
  // the seed from setting the rate through a few stall-prone sessions.
  HostSpeed host(threads);
  std::uint64_t chunks_ns = 0;
  std::uint64_t lifecycle_ns = 0;
  std::vector<double> create_ms;
  std::string first_export;
  report.digest = kFnvOffset;
  for (std::uint64_t f = 0; f < kSoakFleets; ++f) {
    // The traced run captures and replays the first fleet's inputs.
    LayerProbe* first = f == 0 ? probe : nullptr;
    auto fleet = make_fleet(options.seed, threads);
    const std::uint64_t t_create = now_ns();
    try {
      const auto ms = build_soak_fleet(*fleet, options.seed, f * kSoakSessions, first);
      create_ms.insert(create_ms.end(), ms.begin(), ms.end());
    } catch (const std::exception& e) {
      report.check(false, std::string("soak: session creation failed: ") + e.what());
      return report;
    }
    fleet->step_all(kSoakWarmup);
    lifecycle_ns += now_ns() - t_create;
    if (f == 0) {
      put_setup_s(report);
      if (options.setup_only) return report;
    }

    for (std::uint64_t c = 0; c < chunks; ++c) {
      const std::uint64_t ns = timed_step_all(*fleet, kSoakChunk, probe);
      chunks_ns += ns;
      lifecycle_ns += ns;
      report.attempted += kSoakSessions;
      if (c % kSoakProbeEvery == kSoakProbeEvery - 1) host.sample();
    }

    const std::uint64_t t_end = now_ns();
    for (const SessionId id : fleet->session_ids()) {
      if (fleet->session_steps(id) != expected_steps) ++report.failed;
      const std::uint64_t e0 = now_ns();
      std::string json = fleet->session_deterministic_json(id);
      if (probe) {
        probe->span("service.export_ms", now_ns() - e0);
        probe->note_export(json.size());
        auto& site = *fleet->session(id);
        if (first) probe->replay_sensing(site);
        probe->absorb(site);
      }
      report.digest = fnv1a(json, report.digest);
      if (first_export.empty()) first_export = std::move(json);
    }
    for (const SessionId id : fleet->session_ids()) {
      if (!fleet->destroy_session(id)) ++report.failed;
    }
    lifecycle_ns += now_ns() - t_end;
  }

  // Reference: session key 0 alone on a serial service, same tick count.
  report.check(lone_session_export(options.seed, expected_steps) == first_export,
               "soak: session 0 differs from a serial single-session reference");
  report.canary_digest = fnv1a(lone_session_export(kCanarySeed, kSoakWarmup + kSoakChunk));

  const double slowdown = host.slowdown();
  report.put("peak_rss_mb", peak_rss_mb(), "MB");
  // The sixteen sessions of a fleet live side by side, so each fleet
  // lifecycle completes sixteen session lifecycles.
  report.put("sessions_per_s",
             static_cast<double>(kSoakFleets * kSoakSessions) /
                 (static_cast<double>(lifecycle_ns) / 1e9 / slowdown),
             "1/s");
  report.put("session_steps_per_s",
             static_cast<double>(kSoakFleets * chunks * kSoakChunk * kSoakSessions) /
                 (static_cast<double>(chunks_ns) / 1e9 / slowdown),
             "1/s");
  report.put("session_create_ms_p50", median(create_ms), "ms");
  report.put("harness.host_slowdown", slowdown, "ratio");
  return report;
}

}  // namespace fleetbench
