#include "integration/secured_worksite.h"

#include <algorithm>
#include <array>

#include "crypto/aead.h"
#include "net/message.h"
#include "secure/session.h"

namespace agrarsec::integration {

namespace {
// Application-level sender ids: drone and operator are fixed; forwarder i
// uses 1 for the primary (legacy convention) and 10+i for the rest.
constexpr std::uint64_t kDroneSender = 2;
constexpr std::uint64_t kOperatorSender = 3;

std::uint64_t forwarder_sender_id(std::size_t index) {
  return index == 0 ? 1 : 10 + index;
}

// fork_stream domain for the per-sensor perception-noise streams, keyed
// by application sender id (forwarders 1/10+i, drone 2 — disjoint).
// Distinct from the worksite's machine/human/weather domains, so sensing
// never correlates with movement and never touches the shared stream.
constexpr std::uint64_t kSenseStreamDomain = 0x53454E5345ULL;  // "SENSE"

// The drone's flight: altitude above ground and orbit radius around the
// primary forwarder.
constexpr double kDroneAltitudeM = 45.0;
constexpr double kDroneOrbitRadiusM = 25.0;

/// Each forwarder broadcasts its telemetry once per this period.
constexpr core::SimDuration kTelemetryPeriod = core::kSecond;

/// Frequency hopping moves to the next channel of the hop sequence once
/// per this period.
constexpr core::SimDuration kHopPeriod = 200;

/// Application-layer freshness: safety-relevant messages older than this
/// are discarded even when cryptographically valid (defeats hold-back /
/// delayed-release replay, which sequence monotonicity alone cannot).
constexpr core::SimDuration kMaxMessageAge = 2 * core::kSecond;
}  // namespace

SecuredWorksiteConfig::SecuredWorksiteConfig() {
  worksite.forest.bounds = {{0, 0}, {400, 400}};
  worksite.forest.trees_per_hectare = 350;
  worksite.landing_area = {40, 40};

  forwarder_sensor.modality = sensors::Modality::kLidar;
  forwarder_sensor.range_m = 40.0;

  drone_sensor.modality = sensors::Modality::kCamera;
  drone_sensor.range_m = 90.0;  // elevated camera covers a wide footprint
  drone_sensor.fov_rad = 6.283185307179586;  // gimbal sweeps the full orbit
  drone_sensor.base_detect_prob = 0.9;
}

SecuredWorksite::SecuredWorksite(SecuredWorksiteConfig config)
    : config_(std::move(config)) {
  if (config_.forwarder_count == 0) config_.forwarder_count = 1;

  // One shared telemetry for the whole stack: the worksite, the planners,
  // the radio medium and the IDS all instrument into it. Its shape
  // (flight-recorder ring size in particular) comes from the config.
  telemetry_ = std::make_unique<obs::Telemetry>(config_.telemetry);
  config_.worksite.telemetry = telemetry_.get();
  obs::Registry& reg = telemetry_->registry();
  c_reports_sent_ = &reg.counter("secure.detection_reports_sent");
  c_reports_accepted_ = &reg.counter("secure.detection_reports_accepted");
  c_reports_rejected_ = &reg.counter("secure.detection_reports_rejected");
  c_spoofed_accepted_ = &reg.counter("secure.spoofed_messages_accepted");
  c_estops_from_ids_ = &reg.counter("secure.estops_from_ids");
  c_replay_rejected_ = &reg.counter("secure.records_replay_rejected");
  c_too_old_rejected_ = &reg.counter("secure.records_too_old_rejected");
  c_out_of_order_accepted_ = &reg.counter("secure.records_out_of_order_accepted");
  h_step_wall_ = &reg.histogram("wall.secured_step_us", 0.0, 100000.0, 20);

  worksite_ = std::make_unique<sim::Worksite>(config_.worksite, config_.seed);
  ph_establish_ = telemetry_->tracer().phase("secured.establish");

  setup_units();
  harvester_id_ = worksite_->add_harvester("harvester-01", {250, 250});
  if (config_.drone_enabled) {
    drone_id_ = worksite_->add_drone("drone-01", {60, 60}, kDroneAltitudeM);
    // The drone escorts the primary forwarder; its wide camera footprint
    // covers nearby fleet members as well.
    worksite_->set_drone_orbit(drone_id_, units_[0]->machine, kDroneOrbitRadiusM);
    drone_sensor_ = std::make_unique<sensors::PerceptionSensor>(
        SensorId{1000}, config_.drone_sensor);
    drone_sense_rng_ = core::Rng::fork_stream(config_.seed, kSenseStreamDomain,
                                              kDroneSender);
  }

  setup_pki();
  setup_radio();

  // Evidence collection (EU 2023/1230 Annex III 1.1.9) and emergent-
  // behaviour monitoring over the worksite event bus.
  for (auto& condition : safety::forestry_triggering_conditions()) {
    sotif_.add_condition(std::move(condition));
  }
  sotif_.add_condition({"sensor-dropout",
                        "probabilistic per-frame perception miss", true, 10.0});

  audit_ = std::make_unique<secure::AuditLog>(units_[0]->identity->signing);
  emergent_ = std::make_unique<sos::EmergentBehaviorMonitor>();
  emergent_->attach(worksite_->bus());
  worksite_->bus().subscribe("safety/estop", [this](const core::Event& e) {
    audit_->append(e.time, "estop", e.payload);
    telemetry_->recorder().record(e.time, "audit", "estop", e.origin);
  });
  worksite_->bus().subscribe("machine/degraded", [this](const core::Event& e) {
    audit_->append(e.time, "degraded", e.payload);
    telemetry_->recorder().record(e.time, "audit", "degraded", e.origin);
  });
  // Environmental hazards are safety-relevant operating-condition changes
  // (Annex III evidence trail): record windthrow events alongside e-stops.
  worksite_->bus().subscribe("worksite/windthrow", [this](const core::Event& e) {
    audit_->append(e.time, "windthrow", e.payload);
    telemetry_->recorder().record(e.time, "audit", "windthrow", e.origin);
  });
}

SecuredWorksite::~SecuredWorksite() = default;

void SecuredWorksite::setup_units() {
  for (std::size_t i = 0; i < config_.forwarder_count; ++i) {
    auto unit = std::make_unique<ForwarderUnit>();
    unit->index = i;
    unit->sender_id = forwarder_sender_id(i);
    unit->node = NodeId{unit->sender_id};
    const core::Vec2 start{60.0 + 25.0 * static_cast<double>(i % 4),
                           60.0 + 20.0 * static_cast<double>(i / 4)};
    unit->machine = worksite_->add_forwarder(
        "forwarder-" + std::to_string(i + 1), start);
    unit->sensor = std::make_unique<sensors::PerceptionSensor>(
        SensorId{100 + i}, config_.forwarder_sensor);
    unit->sense_rng = core::Rng::fork_stream(config_.seed, kSenseStreamDomain,
                                             unit->sender_id);
    unit->fusion = std::make_unique<safety::DetectionFusion>(config_.fusion);
    unit->monitor = std::make_unique<safety::SafetyMonitor>(
        *worksite_->machine(unit->machine), config_.monitor, &worksite_->bus());
    units_.push_back(std::move(unit));
  }
}

void SecuredWorksite::setup_pki() {
  drbg_ = std::make_unique<crypto::Drbg>(config_.seed, "secured-worksite");
  ca_ = std::make_unique<pki::CertificateAuthority>(
      pki::CertificateAuthority::create_root("site-ca", drbg_->generate32(), 0,
                                             1000 * core::kHour));
  if (auto status = trust_.add_root(ca_->certificate()); !status.ok()) {
    throw std::logic_error("trust store rejected own root: " + status.error().to_string());
  }

  for (auto& unit : units_) {
    auto id = pki::enroll(*ca_, *drbg_,
                          "forwarder-" + std::to_string(unit->index + 1),
                          pki::CertRole::kMachine, 0, 1000 * core::kHour);
    if (!id.ok()) throw std::logic_error("forwarder enrollment failed");
    unit->identity = std::move(id).take();
  }
}

void SecuredWorksite::establish() {
  if (established_) return;
  established_ = true;
  if (!config_.drone_enabled) return;
  const obs::Tracer::Span span{telemetry_->tracer(), ph_establish_};

  auto drn = pki::enroll(*ca_, *drbg_, "drone-01", pki::CertRole::kDrone, 0,
                         1000 * core::kHour);
  if (!drn.ok()) throw std::logic_error("drone enrollment failed");
  drone_identity_ = std::move(drn).take();
  if (!config_.secure_links) return;

  for (auto& unit : units_) {
    auto pair = secure::establish(*drone_identity_, *unit->identity, trust_, 0, *drbg_);
    telemetry_->recorder().record(0, "secure",
                                  pair.ok() ? "handshake-ok" : "handshake-fail",
                                  unit->sender_id, kDroneSender);
    if (!pair.ok()) {
      throw std::logic_error("session establishment failed: " +
                             pair.error().to_string());
    }
    unit->drone_tx = std::move(pair.value().initiator);
    unit->rx_session = std::move(pair.value().responder);
  }
}

void SecuredWorksite::setup_radio() {
  net::RadioConfig radio_config;
  radio_config.max_range_m = 800.0;  // site-scale link budget
  radio_ = std::make_unique<net::RadioMedium>(worksite_->rng().fork(0x52AD1),
                                              radio_config, telemetry_.get());

  for (auto& unit : units_) {
    ForwarderUnit* raw = unit.get();
    radio_->attach(
        unit->node,
        [this, raw] { return worksite_->machine(raw->machine)->position(); },
        [this, raw](const net::Frame& frame, core::SimTime now) {
          on_forwarder_frame(*raw, frame, now);
        });
  }
  if (config_.drone_enabled) {
    radio_->attach(
        drone_node_, [this] { return worksite_->machine(drone_id_)->position(); },
        [](const net::Frame&, core::SimTime) {});
  }
  radio_->attach(operator_node_, [this] { return config_.worksite.landing_area; },
                 [](const net::Frame&, core::SimTime) {});

  ids::IdsConfig ids_config;
  // The drone legitimately emits one report per detection per frame; size
  // the per-source flood threshold for a full crew in view.
  ids_config.flood_threshold = 150;
  ids_ = std::make_unique<ids::IntrusionDetectionSystem>(ids_config,
                                                         telemetry_.get());
  for (auto& unit : units_) ids_->register_node(unit->sender_id, false);
  ids_->register_node(kDroneSender, false);
  ids_->register_node(kOperatorSender, true);
  if (config_.ids_enabled) {
    radio_->add_sniffer([this](const net::Frame& frame) {
      ids_->observe(frame, worksite_->clock().now());
    });
    ids_->set_alert_handler([this](const ids::Alert& alert) {
      correlator_.ingest(alert);
      if (alert.severity == ids::AlertSeverity::kCritical) {
        c_estops_from_ids_->add();
        for (auto& unit : units_) unit->monitor->ids_critical(alert.time);
        if (audit_) {
          audit_->append(alert.time, "ids-alert",
                         "rule=" + alert.rule + " subject=" +
                             std::to_string(alert.subject));
          telemetry_->recorder().record(alert.time, "audit", "ids-alert",
                                        alert.subject);
        }
      }
    });
  }
}

net::AttackerNode& SecuredWorksite::add_attacker(core::Vec2 position, int level) {
  const NodeId id{100 + attackers_.size()};
  attackers_.push_back(std::make_unique<net::AttackerNode>(
      id, position, worksite_->rng().fork(0xA77 + attackers_.size()),
      net::attacker_profile_for_level(level)));
  attackers_.back()->attach(*radio_);
  return *attackers_.back();
}

void SecuredWorksite::attack_forwarder_sensor(const sensors::SensorAttack& attack,
                                              std::size_t index) {
  units_.at(index)->sensor->set_attack(attack);
}

std::uint32_t SecuredWorksite::channel_at(core::SimTime time) const {
  if (!config_.frequency_hopping) return kRadioChannel;
  // Time-synchronized pseudo-random hop sequence (splitmix of the slot).
  std::uint64_t slot = static_cast<std::uint64_t>(time / kHopPeriod);
  slot += 0x9E3779B97F4A7C15ULL;
  slot = (slot ^ (slot >> 30)) * 0xBF58476D1CE4E5B9ULL;
  slot = (slot ^ (slot >> 27)) * 0x94D049BB133111EBULL;
  return kRadioChannel +
         static_cast<std::uint32_t>((slot ^ (slot >> 31)) % config_.hop_channels);
}

void SecuredWorksite::send_from_drone(ForwarderUnit& unit, std::uint64_t sequence,
                                      std::span<const std::uint8_t> message,
                                      core::SimTime now) {
  net::Frame frame;
  frame.src = drone_node_;
  frame.dst = unit.node;
  frame.channel = channel_at(now);

  if (config_.secure_links && unit.drone_tx) {
    // One buffer, sized once: the outer header, then the sealed record
    // appended behind it (DESIGN.md §25).
    const std::size_t record_size =
        secure::kRecordHeaderSize + message.size() + crypto::kAeadTagSize;
    frame.payload.reserve(net::kMessageHeaderSize + record_size);
    frame.payload.resize(net::kMessageHeaderSize);
    net::write_message_header(frame.payload.data(), net::MessageType::kSecureRecord,
                              kDroneSender, sequence, now, record_size);
    unit.drone_tx->seal_append(message, frame.payload);
  } else {
    frame.payload.assign(message.begin(), message.end());
  }
  radio_->send(std::move(frame), now);
}

void SecuredWorksite::drone_report_cycle(core::SimTime now) {
  if (!config_.drone_enabled || !drone_sensor_) return;
  const sim::Machine* drone = worksite_->machine(drone_id_);
  drone_sensor_->sense_into(*worksite_, *drone, now, *drone_sense_rng_,
                            drone_detections_);

  // One report per detection per fleet member, plus a heartbeat carrying
  // "cover alive" (sessions are per machine, so sealed copies differ).
  // Each inner message is encoded on the stack.
  std::array<std::uint8_t, net::kMessageHeaderSize + net::DetectionBody::kSize> inner;
  for (auto& unit : units_) {
    for (const auto& d : drone_detections_) {
      const std::uint64_t sequence = ++drone_sequence_;
      net::write_message_header(inner.data(), net::MessageType::kDetectionReport,
                                kDroneSender, sequence, now, net::DetectionBody::kSize);
      net::DetectionBody{d.position.x, d.position.y, d.confidence, 0}.encode_into(
          inner.data() + net::kMessageHeaderSize);
      send_from_drone(*unit, sequence, inner, now);
      c_reports_sent_->add();
    }
    const std::uint64_t sequence = ++drone_sequence_;
    net::write_message_header(inner.data(), net::MessageType::kHeartbeat, kDroneSender,
                              sequence, now, 0);
    send_from_drone(*unit, sequence, std::span(inner).first(net::kMessageHeaderSize), now);
  }
}

void SecuredWorksite::on_forwarder_frame(ForwarderUnit& unit, const net::Frame& frame,
                                         core::SimTime now) {
  // Every layer is parsed in place: the outer message and the record view
  // the frame's payload, and the inner message views the unit's open
  // scratch, which the next record opened on this unit overwrites.
  const auto outer = net::MessageView::decode(frame.payload);
  if (!outer) return;

  net::MessageView message = *outer;
  bool authenticated = false;

  if (outer->type == net::MessageType::kSecureRecord) {
    if (!unit.rx_session) return;
    const auto record = secure::RecordView::decode(outer->body);
    if (!record) {
      c_reports_rejected_->add();
      return;
    }
    if (unit.open_scratch.size() < record->ciphertext.size()) {
      unit.open_scratch.resize(record->ciphertext.size());
    }
    const std::uint64_t ooo_before = unit.rx_session->out_of_order_accepted();
    const auto opened = unit.rx_session->open_into(*record, unit.open_scratch);
    if (!opened.ok()) {
      c_reports_rejected_->add();
      // Split the rejection by anti-replay classification so the drop
      // reasons are distinguishable in the telemetry export.
      if (opened.error().code == "replay") {
        c_replay_rejected_->add();
      } else if (opened.error().code == "too_old") {
        c_too_old_rejected_->add();
      }
      return;
    }
    if (unit.rx_session->out_of_order_accepted() > ooo_before) {
      c_out_of_order_accepted_->add();
    }
    const auto inner = net::MessageView::decode(opened.value());
    if (!inner) return;
    message = *inner;
    authenticated = true;
  } else if (config_.secure_links) {
    // Secure mode: plaintext application messages are not accepted.
    if (outer->type == net::MessageType::kDetectionReport ||
        outer->type == net::MessageType::kEstopCommand) {
      c_reports_rejected_->add();
    }
    return;
  }

  // Freshness gate on safety-relevant messages: the timestamp checked here
  // is the authenticated inner one in secure mode, so a held-back record
  // released later is discarded even though its MAC verifies.
  if (message.type == net::MessageType::kDetectionReport ||
      message.type == net::MessageType::kHeartbeat ||
      message.type == net::MessageType::kEstopCommand) {
    if (message.timestamp + kMaxMessageAge < now) {
      c_reports_rejected_->add();
      return;
    }
  }

  // Spoof accounting (harness-side ground truth: frame.src is physical).
  const bool claims_known_sender =
      message.sender == kDroneSender || message.sender == kOperatorSender ||
      std::any_of(units_.begin(), units_.end(), [&](const auto& u) {
        return u->sender_id == message.sender;
      });
  const bool physically_spoofed =
      claims_known_sender && frame.src.value() != message.sender;
  if (!authenticated && physically_spoofed) {
    c_spoofed_accepted_->add();
  }

  switch (message.type) {
    case net::MessageType::kDetectionReport: {
      const auto body = net::DetectionBody::decode(message.body);
      if (!body) break;
      sensors::Detection d;
      d.target = HumanId::invalid();
      d.position = {body->x, body->y};
      d.confidence = body->confidence;
      d.source = SensorId{1000};
      d.time = message.timestamp;
      unit.fusion->add_remote(d);
      unit.monitor->note_cover(now);
      c_reports_accepted_->add();
      break;
    }
    case net::MessageType::kHeartbeat:
      if (message.sender == kDroneSender) unit.monitor->note_cover(now);
      break;
    case net::MessageType::kEstopCommand:
      unit.monitor->command_stop(safety::EstopReason::kRemoteCommand, now);
      break;
    default:
      break;
  }
}

void SecuredWorksite::forwarder_sense_cycle(core::SimTime now) {
  for (auto& unit : units_) {
    const sim::Machine* forwarder = worksite_->machine(unit->machine);
    unit->sensor->sense_into(*worksite_, *forwarder, now, *unit->sense_rng,
                             unit->detections);
    unit->fusion->add_local(unit->detections);
  }
}

void SecuredWorksite::telemetry_cycle(core::SimTime now) {
  for (auto& unit : units_) {
    if (now - unit->last_telemetry < kTelemetryPeriod) continue;
    unit->last_telemetry = now;
    const sim::Machine* forwarder = worksite_->machine(unit->machine);

    net::Frame frame;
    frame.src = unit->node;
    frame.dst = NodeId::invalid();  // broadcast to site
    frame.channel = channel_at(now);
    frame.payload.resize(net::kMessageHeaderSize + net::TelemetryBody::kSize);
    net::write_message_header(frame.payload.data(), net::MessageType::kTelemetry,
                              unit->sender_id, ++unit->telemetry_sequence, now,
                              net::TelemetryBody::kSize);
    net::TelemetryBody{forwarder->position().x, forwarder->position().y,
                       forwarder->heading(), forwarder->speed()}
        .encode_into(frame.payload.data() + net::kMessageHeaderSize);
    radio_->send(std::move(frame), now);
  }
}

void SecuredWorksite::track_ground_truth(core::SimTime now) {
  for (auto& unit : units_) {
    const sim::Machine* forwarder = worksite_->machine(unit->machine);

    auto associated = [&](core::Vec2 person) {
      for (const auto& track : unit->fusion->tracks()) {
        if (core::distance(track.position, person) <= kTrackAssociationM) return true;
      }
      return false;
    };

    bool any_in_critical = false;
    // Indexed range query instead of a scan over every human on site: only
    // people inside the zones carry per-step bookkeeping. Anyone farther
    // out is handled by the deactivation sweep below.
    const double zone_radius =
        std::max(config_.monitor.warning_zone_m, config_.monitor.critical_zone_m);
    worksite_->humans_within(forwarder->position(), zone_radius, zone_people_);
    for (const sim::Human* person : zone_people_) {
      const core::Vec2 hpos = person->position();
      const double d = core::distance(hpos, forwarder->position());
      const bool in_critical = d <= config_.monitor.critical_zone_m;
      const bool in_warning = d <= config_.monitor.warning_zone_m;
      any_in_critical |= in_critical;
      if (!in_warning) continue;  // deactivation handled by the sweep

      EncounterState& state = unit->encounters[person->id().value()];

      // Per-step coverage: is this person represented in this machine's
      // fused picture right now?
      ++outcome_.person_zone_steps;
      const bool covered = associated(hpos);
      if (covered) ++outcome_.person_covered_steps;
      const bool fast = forwarder->speed() > sim::kDegradedSpeedMps + 0.3;
      if (!covered && fast) ++outcome_.blind_fast_steps;

      // SOTIF: attribute every blind step to its triggering condition.
      if (!covered) {
        std::string condition;
        if (config_.worksite.weather != sim::Weather::kClear) {
          condition = std::string("weather-") +
                      std::string(sim::weather_name(config_.worksite.weather));
        } else {
          switch (worksite_->terrain().occlusion_cause(
              forwarder->position(), forwarder->sensor_agl(), hpos,
              person->height() * 0.7)) {
            case sim::Terrain::OcclusionCause::kBoulder:
              condition = "occlusion-boulder";
              break;
            case sim::Terrain::OcclusionCause::kBrush:
              condition = "occlusion-brush";
              break;
            case sim::Terrain::OcclusionCause::kTree:
              condition = "occlusion-stems";
              break;
            case sim::Terrain::OcclusionCause::kTerrain:
              condition = "occlusion-terrain";
              break;
            case sim::Terrain::OcclusionCause::kNone:
              condition = "sensor-dropout";  // probabilistic frame miss
              break;
          }
        }
        sotif_.record(condition, fast ? safety::ScenarioOutcome::kHazardous
                                      : safety::ScenarioOutcome::kSafe);
      }

      if (!state.active) {
        state.active = true;
        state.started = now;
        state.detected = false;
        ++outcome_.encounters;
      }
      if (!state.detected && covered) {
        state.detected = true;
        outcome_.time_to_detect_ms.add(static_cast<double>(now - state.started));
      }
    }

    // Close out encounters whose person left the warning zone this step.
    for (auto& [human_value, state] : unit->encounters) {
      if (!state.active) continue;
      const sim::Human* human = worksite_->human(HumanId{human_value});
      if (human != nullptr &&
          core::distance(human->position(), forwarder->position()) <=
              config_.monitor.warning_zone_m) {
        continue;
      }
      state.active = false;
      if (!state.detected) ++outcome_.missed_encounters;
    }

    if (any_in_critical) {
      ++outcome_.exposure_steps;
      // Hazardous only above the occlusion-safe speed: stopping distance at
      // degraded speed fits the machine's own (occludable) sensing.
      if (forwarder->speed() > sim::kDegradedSpeedMps + 0.3) {
        ++outcome_.hazardous_exposures;
      }
    }
  }
}

void SecuredWorksite::step() {
  // The links first, timed under their own phase, not in this step's
  // sample.
  establish();
  // Full-stack step wall time (sim + radio + IDS + safety); the "wall."
  // prefix keeps this timing histogram out of the deterministic export.
  const std::uint64_t step_start_ns = obs::Tracer::now_ns();
  worksite_->step();
  const core::SimTime now = worksite_->clock().now();

  forwarder_sense_cycle(now);
  drone_report_cycle(now);
  telemetry_cycle(now);

  radio_->step(now);
  if (config_.ids_enabled) {
    ids_->tick(now);
    correlator_.tick(now);
  }

  for (auto& unit : units_) {
    unit->monitor->update(unit->fusion->fuse(now), now);
  }
  track_ground_truth(now);

  h_step_wall_->add(
      static_cast<double>(obs::Tracer::now_ns() - step_start_ns) / 1000.0);
}

void SecuredWorksite::run_for(core::SimDuration duration) {
  const core::SimTime end = worksite_->clock().now() + duration;
  while (worksite_->clock().now() < end) step();
}

SecurityMetrics SecuredWorksite::security_metrics() const {
  SecurityMetrics m;
  m.detection_reports_sent = c_reports_sent_->value();
  m.detection_reports_accepted = c_reports_accepted_->value();
  m.detection_reports_rejected = c_reports_rejected_->value();
  m.spoofed_messages_accepted = c_spoofed_accepted_->value();
  m.estops_from_ids = c_estops_from_ids_->value();
  return m;
}

}  // namespace agrarsec::integration
