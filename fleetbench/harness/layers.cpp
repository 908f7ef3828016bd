// LayerProbe: the traced run's per-layer measurements, all taken from
// outside the program — spans around public calls, frames captured by a
// radio sniffer, counters and phases the sessions already keep — plus
// replays of the captured inputs through each layer's public entry points
// on private instances after the timed window.
#include <algorithm>
#include <map>

#include "crypto/random.h"
#include "harness/bench.h"
#include "harness/helpers.h"
#include "ids/ids.h"
#include "net/message.h"
#include "obs/flight_recorder.h"
#include "pki/authority.h"
#include "safety/fusion.h"
#include "secure/handshake.h"
#include "sensors/perception.h"
#include "service/console.h"
#include "sim/pathfinding.h"
#include "sim/terrain.h"

namespace fleetbench {

using agrarsec::integration::SecuredWorksite;
using agrarsec::integration::SecuredWorksiteConfig;

namespace {

constexpr std::size_t kCaptureFrames = 4096;  // per captured session
constexpr std::size_t kFlightMix = 16384;
constexpr std::size_t kConfigReplays = 16;
constexpr int kSenseRepeats = 20;
constexpr std::int64_t kTickMs = 100;  // sim milliseconds per tick

constexpr const char* kCounters[] = {
    "planner.plans",          "planner.jps_expansions",
    "planner.cache_hits",     "worksite.route_reuses",
    "worksite.steps",         "secure.detection_reports_rejected",
    "secure.records_replay_rejected", "secure.records_too_old_rejected",
    "radio.sent",             "radio.outcome.delivered",
    "radio.outcome.path_loss", "radio.outcome.collision",
    "radio.outcome.jammed",   "radio.outcome.dropped",
    "ids.alerts",             "ids.alerts.flood",
    "bus.events",
};

struct Capture {
  std::vector<agrarsec::net::Frame> frames;
};

struct FlightSample {
  agrarsec::core::SimTime t = 0;
  std::string category, code, detail;
  std::uint64_t subject = 0, a = 0, b = 0;
};

/// A private drone->machine secure-session pair for the record replays.
struct PrivatePair {
  agrarsec::secure::SessionPair pair;

  static PrivatePair make() {
    using agrarsec::core::kHour;
    agrarsec::crypto::Drbg drbg{0xF1EE7ULL, "fleetbench-replay"};
    auto ca = agrarsec::pki::CertificateAuthority::create_root("replay-ca", drbg.generate32(),
                                                               0, 1000 * kHour);
    agrarsec::pki::TrustStore trust;
    (void)trust.add_root(ca.certificate());
    auto drone = agrarsec::pki::enroll(ca, drbg, "drone-01", agrarsec::pki::CertRole::kDrone,
                                       0, 1000 * kHour)
                     .take();
    auto machine = agrarsec::pki::enroll(ca, drbg, "forwarder-1",
                                         agrarsec::pki::CertRole::kMachine, 0, 1000 * kHour)
                       .take();
    return {agrarsec::secure::establish(drone, machine, trust, 0, drbg).take()};
  }
};

double median_or(std::vector<double> v, double fallback) {
  return v.empty() ? fallback : median(std::move(v));
}

}  // namespace

struct LayerProbe::State {
  std::map<std::string, std::vector<double>> spans_ns;
  std::vector<std::unique_ptr<Capture>> captures;
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t step_ns = 0, step_calls = 0, drain_ns = 0, drain_max_ns = 0;
  double secured_step_us = 0, secured_steps = 0;
  std::uint64_t flight_total = 0;
  std::vector<FlightSample> flight_mix;
  std::vector<SecuredWorksiteConfig> configs;
  std::vector<std::size_t> export_sizes;
  std::uint64_t busy_ns = 0, busy_wall_ns = 0;
  std::size_t shards = 0;
  std::vector<double> sense_ns, fuse_ns;
  std::uint64_t detections = 0;
  std::size_t forwarders = 0, sessions = 0;
};

LayerProbe::LayerProbe() : state_(std::make_unique<State>()) {}
LayerProbe::~LayerProbe() = default;

void LayerProbe::span(const std::string& name, std::uint64_t ns) {
  state_->spans_ns[name].push_back(static_cast<double>(ns));
}

void LayerProbe::capture(SecuredWorksite& site) {
  auto capture = std::make_unique<Capture>();
  Capture* raw = capture.get();
  raw->frames.reserve(kCaptureFrames);
  state_->captures.push_back(std::move(capture));
  // Observation only: the sniffer copies frames and never touches the sim.
  site.radio().add_sniffer([raw](const agrarsec::net::Frame& frame) {
    if (raw->frames.size() < kCaptureFrames) raw->frames.push_back(frame);
  });
}

void LayerProbe::absorb(const SecuredWorksite& site) {
  State& s = *state_;
  const auto& telemetry = site.telemetry();
  for (const char* name : kCounters) {
    if (const auto* c = telemetry.registry().find_counter(name)) s.counters[name] += c->value();
  }
  const auto& tracer = telemetry.tracer();
  for (std::size_t p = 0; p < tracer.phase_count(); ++p) {
    const auto& stats = tracer.stats(p);
    if (tracer.phase_name(p) == "worksite.step") {
      s.step_ns += stats.total_ns;
      s.step_calls += stats.calls;
    } else if (tracer.phase_name(p) == "worksite.drain") {
      s.drain_ns += stats.total_ns;
      s.drain_max_ns = std::max(s.drain_max_ns, stats.max_ns);
    }
  }
  telemetry.registry().for_each_histogram([&](const std::string& name, const auto& h) {
    if (name == "wall.secured_step_us") {
      s.secured_step_us += h.sum();
      s.secured_steps += static_cast<double>(h.count());
    }
  });
  const auto& recorder = telemetry.recorder();
  s.flight_total += recorder.total_recorded();
  recorder.for_each([&](const agrarsec::obs::FlightEvent& e) {
    if (s.flight_mix.size() < kFlightMix) {
      s.flight_mix.push_back({e.time, e.category, e.code, e.detail, e.subject, e.a, e.b});
    }
  });
  s.forwarders += site.forwarder_count();
  ++s.sessions;
}

void LayerProbe::replay_sensing(SecuredWorksite& site) {
  State& s = *state_;
  const auto& world = site.worksite();
  const auto now = world.clock().now();
  const auto& config = site.config();
  agrarsec::safety::DetectionFusion fusion{config.fusion};
  agrarsec::core::Rng rng{0x5E115EULL + s.sessions};
  for (int r = 0; r < kSenseRepeats; ++r) {
    for (std::size_t i = 0; i < site.forwarder_count(); ++i) {
      const agrarsec::sensors::PerceptionSensor sensor{agrarsec::SensorId{900 + i},
                                                       config.forwarder_sensor};
      const auto* machine = world.machine(site.forwarder_id(i));
      const std::uint64_t t0 = now_ns();
      const auto detections = sensor.sense(world, *machine, now, rng);
      s.sense_ns.push_back(static_cast<double>(now_ns() - t0));
      s.detections += detections.size();
      if (i == 0) fusion.add_local(detections);
    }
    if (config.drone_enabled) {
      const agrarsec::sensors::PerceptionSensor drone{agrarsec::SensorId{999},
                                                      config.drone_sensor};
      const std::uint64_t t0 = now_ns();
      const auto detections = drone.sense(world, *world.machine(site.drone_id()), now, rng);
      s.sense_ns.push_back(static_cast<double>(now_ns() - t0));
      s.detections += detections.size();
      for (const auto& d : detections) fusion.add_remote(d);
    }
    const std::uint64_t t0 = now_ns();
    (void)fusion.fuse(now);
    s.fuse_ns.push_back(static_cast<double>(now_ns() - t0));
  }
}

void LayerProbe::note_config(const SecuredWorksiteConfig& config) {
  if (state_->configs.size() < kConfigReplays) state_->configs.push_back(config);
}

void LayerProbe::note_export(std::size_t bytes) {
  state_->export_sizes.push_back(bytes);
}

void LayerProbe::note_shard_busy(std::uint64_t busy_ns, std::uint64_t wall_ns,
                                 std::size_t shards) {
  state_->busy_ns += busy_ns;
  state_->busy_wall_ns += wall_ns;
  state_->shards = shards;
}

void LayerProbe::finish(Report& report) {
  State& s = *state_;
  const auto spans = [&](const std::string& name) -> std::vector<double>& {
    return s.spans_ns[name];
  };
  const auto put_median = [&](const std::string& metric, const std::string& span,
                              double scale, const std::string& unit) {
    if (!spans(span).empty()) report.put(metric, median(spans(span)) / scale, unit);
  };

  // --- spans around the service's public calls ---
  put_median("service.create_ms", "service.create_ms", 1e6, "ms");
  put_median("service.step_ms", "service.step_ms", 1e6, "ms");
  put_median("service.export_ms", "service.export_ms", 1e6, "ms");
  if (s.shards > 1 && s.busy_wall_ns > 0) {
    report.put("service.shard_busy_ratio",
               static_cast<double>(s.busy_ns) /
                   (static_cast<double>(s.busy_wall_ns) * static_cast<double>(s.shards)),
               "ratio");
  }

  // --- what the sessions already record ---
  auto counter = [&](const char* name) { return static_cast<double>(s.counters[name]); };
  if (s.step_calls > 0) {
    report.put("sim.step_us", static_cast<double>(s.step_ns) / s.step_calls / 1e3, "us");
    report.put("sim.drain_us", static_cast<double>(s.drain_ns) / s.step_calls / 1e3, "us");
  }
  report.put("sim.drain_max_ms", static_cast<double>(s.drain_max_ns) / 1e6, "ms");
  report.put("sim.plans", counter("planner.plans"), "count");
  report.put("sim.jps_expansions", counter("planner.jps_expansions"), "count");
  report.put("sim.cache_hits", counter("planner.cache_hits"), "count");
  report.put("sim.route_reuses", counter("worksite.route_reuses"), "count");
  const double rejected = counter("secure.detection_reports_rejected");
  const double replay = counter("secure.records_replay_rejected");
  const double too_old = counter("secure.records_too_old_rejected");
  report.put("secure.rejected.auth", std::max(0.0, rejected - replay - too_old), "count");
  report.put("secure.rejected.replay", replay, "count");
  report.put("secure.rejected.too_old", too_old, "count");
  report.put("net.frames", counter("radio.sent"), "count");
  report.put("net.delivered", counter("radio.outcome.delivered"), "count");
  report.put("net.dropped",
             counter("radio.outcome.path_loss") + counter("radio.outcome.collision") +
                 counter("radio.outcome.jammed") + counter("radio.outcome.dropped"),
             "count");
  report.put("ids.alerts", counter("ids.alerts"), "count");
  report.put("ids.alerts.flood", counter("ids.alerts.flood"), "count");
  report.put("core.bus_events", counter("bus.events"), "count");
  report.put("obs.flight_events", static_cast<double>(s.flight_total), "count");
  double export_bytes = 0;
  for (const std::size_t b : s.export_sizes) export_bytes += static_cast<double>(b);
  report.put("obs.export_bytes", export_bytes, "bytes");

  // --- session construction replays ---
  {
    std::vector<double> terrain_ms, planner_ms, enroll_ms, handshake_ms;
    for (const auto& config : s.configs) {
      agrarsec::core::Rng rng = agrarsec::core::Rng{config.seed}.fork(0x7e44a1);
      std::uint64_t t0 = now_ns();
      const auto terrain = agrarsec::sim::Terrain::generate(config.worksite.forest, rng);
      terrain_ms.push_back(ns_to_ms(now_ns() - t0));
      t0 = now_ns();
      const agrarsec::sim::PathPlanner planner{terrain, agrarsec::sim::PlannerConfig{}};
      planner_ms.push_back(ns_to_ms(now_ns() - t0));

      using agrarsec::core::kHour;
      agrarsec::crypto::Drbg drbg{config.seed, "secured-worksite"};
      auto ca = agrarsec::pki::CertificateAuthority::create_root("site-ca", drbg.generate32(),
                                                                 0, 1000 * kHour);
      agrarsec::pki::TrustStore trust;
      (void)trust.add_root(ca.certificate());
      std::vector<agrarsec::pki::Identity> machines;
      t0 = now_ns();
      for (std::size_t i = 0; i < config.forwarder_count; ++i) {
        machines.push_back(agrarsec::pki::enroll(ca, drbg, "forwarder-" + std::to_string(i + 1),
                                                 agrarsec::pki::CertRole::kMachine, 0,
                                                 1000 * kHour)
                               .take());
      }
      const auto drone = agrarsec::pki::enroll(ca, drbg, "drone-01",
                                               agrarsec::pki::CertRole::kDrone, 0, 1000 * kHour)
                             .take();
      enroll_ms.push_back(ns_to_ms(now_ns() - t0));
      t0 = now_ns();
      for (const auto& machine : machines) {
        (void)agrarsec::secure::establish(drone, machine, trust, 0, drbg);
      }
      handshake_ms.push_back(ns_to_ms(now_ns() - t0));
    }
    if (!s.configs.empty()) {
      report.put("sim.terrain_ms", median(terrain_ms), "ms");
      report.put("sim.planner_build_ms", median(planner_ms), "ms");
      report.put("pki.enroll_ms", median(enroll_ms), "ms");
      report.put("secure.handshake_ms", median(handshake_ms), "ms");
    }
  }

  // --- replays of the captured frames ---
  double decode_us = 0, seal_us = 0, open_us = 0, observe_us = 0;
  double record_share = 0;
  {
    std::uint64_t frames = 0, records = 0, record_bytes = 0;
    std::uint64_t decode_ns = 0, seal_ns = 0, open_ns = 0, observe_ns = 0;
    std::vector<std::size_t> record_sizes;
    for (const auto& capture : s.captures) {
      for (int pass = 0; pass < 4; ++pass) {
        const std::uint64_t t0 = now_ns();
        for (const auto& frame : capture->frames) {
          const auto message = agrarsec::net::Message::decode(frame.payload);
          if (message && message->type == agrarsec::net::MessageType::kSecureRecord) {
            (void)agrarsec::secure::Record::decode(message->body);
          }
        }
        decode_ns += now_ns() - t0;
      }
      frames += capture->frames.size();
      for (const auto& frame : capture->frames) {
        const auto message = agrarsec::net::Message::decode(frame.payload);
        if (!message || message->type != agrarsec::net::MessageType::kSecureRecord) continue;
        if (const auto record = agrarsec::secure::Record::decode(message->body)) {
          ++records;
          record_bytes += record->ciphertext.size();
          record_sizes.push_back(record->ciphertext.size() >= 16 ? record->ciphertext.size() - 16
                                                                  : 0);
        }
      }

      agrarsec::ids::IdsConfig ids_config;
      ids_config.flood_threshold = 150;  // as the sessions configure it
      agrarsec::ids::IntrusionDetectionSystem ids{ids_config};
      for (const std::uint64_t sender : {1, 11, 12, 13, 2}) ids.register_node(sender, false);
      ids.register_node(3, true);
      std::int64_t last_tick = -1;
      for (const auto& frame : capture->frames) {
        if (frame.sent_at / kTickMs != last_tick) {
          last_tick = frame.sent_at / kTickMs;
          ids.tick(frame.sent_at);
        }
        const std::uint64_t t0 = now_ns();
        ids.observe(frame, frame.sent_at);
        observe_ns += now_ns() - t0;
      }
    }
    PrivatePair link = PrivatePair::make();
    for (const std::size_t size : record_sizes) {
      const agrarsec::core::Bytes plaintext(size, 0x5A);
      std::uint64_t t0 = now_ns();
      const auto record = link.pair.initiator.seal(plaintext);
      seal_ns += now_ns() - t0;
      t0 = now_ns();
      (void)link.pair.responder.open(record);
      open_ns += now_ns() - t0;
    }
    if (frames > 0) {
      decode_us = static_cast<double>(decode_ns) / 4.0 / static_cast<double>(frames) / 1e3;
      observe_us = static_cast<double>(observe_ns) / static_cast<double>(frames) / 1e3;
      record_share = static_cast<double>(records) / static_cast<double>(frames);
      report.put("net.decode_us", decode_us, "us");
      report.put("ids.observe_us", observe_us, "us");
    }
    if (records > 0) {
      seal_us = static_cast<double>(seal_ns) / static_cast<double>(records) / 1e3;
      open_us = static_cast<double>(open_ns) / static_cast<double>(records) / 1e3;
      report.put("secure.seal_us", seal_us, "us");
      report.put("secure.open_us", open_us, "us");
    }
    report.put("secure.records", static_cast<double>(records), "count");
    report.put("secure.record_bytes", static_cast<double>(record_bytes), "bytes");
  }

  // --- export-sized RPC payloads through the same kind of pair ---
  if (!s.export_sizes.empty()) {
    std::vector<double> sizes(s.export_sizes.begin(), s.export_sizes.end());
    const auto size = static_cast<std::size_t>(median(sizes));
    PrivatePair link = PrivatePair::make();
    const agrarsec::core::Bytes payload(size, 0x7B);
    const auto aad = std::span<const std::uint8_t>{
        reinterpret_cast<const std::uint8_t*>(agrarsec::service::kConsoleAad.data()),
        agrarsec::service::kConsoleAad.size()};
    std::vector<double> ms;
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t t0 = now_ns();
      const auto record = link.pair.initiator.seal(payload, aad);
      (void)link.pair.responder.open(record, aad);
      ms.push_back(ns_to_ms(now_ns() - t0));
    }
    report.put("secure.rpc_seal_open_ms", median(ms), "ms");
  }

  // --- flight-recorder appends with the run's event mix ---
  double record_ns = 0;
  if (!s.flight_mix.empty()) {
    agrarsec::obs::FlightRecorder recorder{4096};
    std::uint64_t events = 0;
    const std::uint64_t t0 = now_ns();
    while (events < 200000) {
      for (const auto& e : s.flight_mix) {
        recorder.record(e.t, e.category, e.code, e.subject, e.a, e.b, e.detail);
      }
      events += s.flight_mix.size();
    }
    record_ns = static_cast<double>(now_ns() - t0) / static_cast<double>(events);
    report.put("obs.flight_record_ns", record_ns, "ns");
  }

  // --- sensing and fusion replays ---
  const double sense_us = median_or(s.sense_ns, 0) / 1e3;
  const double fuse_us = median_or(s.fuse_ns, 0) / 1e3;
  if (!s.sense_ns.empty()) {
    report.put("sensors.sense_us", sense_us, "us");
    report.put("sensors.detections", static_cast<double>(s.detections), "count");
    report.put("safety.fuse_us", fuse_us, "us");
  }

  // --- one session step split into layers ---
  // SecuredWorksite times its whole step into wall.secured_step_us; the
  // worksite.step phase inside it is the sim's share.
  if (s.secured_steps > 0 && s.step_calls > 0 && s.sessions > 0) {
    const double session_step_us = s.secured_step_us / s.secured_steps;
    const double integration_us =
        session_step_us - static_cast<double>(s.step_ns) / s.step_calls / 1e3;
    const double all_steps = std::max(1.0, counter("worksite.steps"));
    const double frames_per_step = counter("radio.sent") / all_steps;
    const double delivered_per_step = counter("radio.outcome.delivered") / all_steps;
    const double events_per_step = static_cast<double>(s.flight_total) / all_steps;
    const double fwd = static_cast<double>(s.forwarders) / static_cast<double>(s.sessions);
    const double attributed = sense_us * (fwd + 1.0) + fuse_us * fwd +
                              seal_us * frames_per_step * record_share +
                              (open_us * record_share + decode_us) * delivered_per_step +
                              observe_us * frames_per_step +
                              record_ns / 1e3 * events_per_step;
    report.put("integration.session_step_us", session_step_us, "us");
    report.put("integration.step_us", integration_us, "us");
    report.put("integration.attributed_us", attributed, "us");
    report.put("integration.unattributed_us", integration_us - attributed, "us");
  }
}

}  // namespace fleetbench
