// End-to-end composition of the paper's use case (Figures 1 & 2): the
// worksite simulation wired to the radio medium, PKI-backed secure
// channels, the on-machine IDS and the collaborative safety stack. This
// is the top of the library — examples and benches configure it and read
// its outcome metrics.
//
// Dataflow per simulation step (100 ms):
//   drone + forwarder sensors sense -> drone serializes detections and
//   radios them to each forwarder (plaintext broadcast or per-session
//   sealed records, per config) -> forwarders parse/authenticate, feed
//   their fusion -> each safety monitor decides (e-stop / degrade /
//   normal) -> telemetry heartbeats -> IDS taps every frame -> radio
//   applies channel effects/attacks.
// Ground truth (encounters, coverage, SOTIF blind-step causes) is then
// read from the worksite's Human entities through the same range query
// (Worksite::humans_within) and sight-line path (Terrain::occlusion_cause)
// that perception uses (DESIGN.md §19).
//
// Supports a fleet: `forwarder_count` autonomous forwarders, each with
// its own perception, fusion, safety monitor, identity and (in secure
// mode) its own session with the drone. Single-forwarder accessors
// (forwarder_id(), monitor(), ...) refer to the primary (first) machine.
//
// Set-up is split in two (DESIGN.md §31). The constructor builds the
// worksite and terrain, the units, the site CA and the forwarders'
// enrolment (the audit log signs with forwarder 0's key), the radio, the
// IDS and the audit log. establish() enrols the drone and runs the
// drone-forwarder handshakes; the first step() calls it, so in a
// FleetService that work runs on a pool shard, usually the session's home
// shard. The planner
// builds its blocked grid on first use in the same way.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/stats.h"
#include "crypto/random.h"
#include "ids/correlation.h"
#include "ids/ids.h"
#include "net/attacker.h"
#include "net/radio.h"
#include "obs/telemetry.h"
#include "pki/identity.h"
#include "pki/trust_store.h"
#include "safety/fusion.h"
#include "safety/monitor.h"
#include "safety/sotif.h"
#include "secure/audit_log.h"
#include "secure/handshake.h"
#include "sensors/perception.h"
#include "sim/worksite.h"
#include "sos/emergent.h"

namespace agrarsec::integration {

/// Radio channel of all site traffic (the first hop channel when
/// frequency hopping is on).
inline constexpr std::uint32_t kRadioChannel = 3;

struct SecuredWorksiteConfig {
  sim::WorksiteConfig worksite;
  std::uint64_t seed = 1;

  /// Number of autonomous forwarders (Figure 1 shows a fleet).
  std::size_t forwarder_count = 1;

  bool drone_enabled = true;

  /// Link protection: false = plaintext messages (the attackable
  /// baseline), true = AEAD records over established sessions.
  bool secure_links = true;
  bool ids_enabled = true;

  safety::FusionConfig fusion;
  safety::MonitorConfig monitor;
  sensors::PerceptionConfig forwarder_sensor;
  sensors::PerceptionConfig drone_sensor;

  /// Channel agility: when enabled, all site traffic hops pseudo-randomly
  /// over `hop_channels` channels from kRadioChannel up, every 200 ms
  /// (time-synchronized across machines), so a narrowband jammer only
  /// ever covers 1/N of the traffic — the "frequency-hopping"
  /// countermeasure of the catalogue.
  bool frequency_hopping = false;
  std::uint32_t hop_channels = 8;

  /// Shape of the shared obs::Telemetry the full stack instruments into —
  /// notably flight_capacity, the flight-recorder ring size (long
  /// campaigns need more than the 4096 default to keep early events).
  obs::TelemetryConfig telemetry;

  SecuredWorksiteConfig();
};

/// Outcome counters the experiments read (aggregated over the fleet).
/// Registry-backed: the live values are "secure.*" counters in the site's
/// obs::Telemetry; security_metrics() assembles this snapshot from them.
struct SecurityMetrics {
  std::uint64_t detection_reports_sent = 0;
  std::uint64_t detection_reports_accepted = 0;
  std::uint64_t detection_reports_rejected = 0;  ///< failed auth/replay/freshness
  std::uint64_t spoofed_messages_accepted = 0;   ///< baseline weakness metric
  std::uint64_t estops_from_ids = 0;
};

struct SafetyOutcome {
  /// Steps with a person inside a machine's critical zone while that
  /// machine moves faster than its occlusion-safe degraded speed —
  /// degraded crawling (stopping distance within own-sensor range) is by
  /// design NOT counted.
  std::uint64_t hazardous_exposures = 0;
  std::uint64_t exposure_steps = 0;       ///< steps with a person in a zone
  core::SampleSet time_to_detect_ms;      ///< first associated track per encounter
  std::uint64_t missed_encounters = 0;    ///< encounter ended with no detection
  std::uint64_t encounters = 0;
  /// Per-step coverage while a person is inside a warning zone: a step is
  /// covered when that machine's fused picture holds a track within
  /// association range of the person's true position. Uncovered steps are
  /// exactly the occlusion blind spots Figure 2 is about. A person inside
  /// two machines' zones contributes one sample per machine.
  std::uint64_t person_zone_steps = 0;
  std::uint64_t person_covered_steps = 0;
  /// Steps where a machine exceeds its occlusion-safe speed while an
  /// *undetected* person stands in its warning zone — the precursor event
  /// §III-B warns about (unsafe behaviour caused by a cyber attack that
  /// removes or forges the collaborative cover).
  std::uint64_t blind_fast_steps = 0;

  [[nodiscard]] double coverage() const {
    return person_zone_steps == 0
               ? 1.0
               : static_cast<double>(person_covered_steps) /
                     static_cast<double>(person_zone_steps);
  }
};

class SecuredWorksite {
 public:
  explicit SecuredWorksite(SecuredWorksiteConfig config);
  ~SecuredWorksite();

  SecuredWorksite(const SecuredWorksite&) = delete;
  SecuredWorksite& operator=(const SecuredWorksite&) = delete;

  /// Enrols the drone and establishes one mutually authenticated session
  /// per forwarder, recording a "handshake-ok" flight event at t = 0 for
  /// each in unit order. step() calls it first; every later call does
  /// nothing. Runs under the tracer phase "secured.establish", outside
  /// that step's wall.secured_step_us sample. It draws from the set-up
  /// DRBG in the order construction left it, so the sessions are the ones
  /// the constructor used to build. A failed handshake throws
  /// std::logic_error once and is not retried (it cannot happen with the
  /// site's own root and a 1000 h certificate window).
  void establish();

  /// Advances one fixed step (establishing the links first).
  void step();
  void run_for(core::SimDuration duration);

  // --- access for scenario scripting ---
  [[nodiscard]] sim::Worksite& worksite() { return *worksite_; }
  [[nodiscard]] const sim::Worksite& worksite() const { return *worksite_; }
  [[nodiscard]] net::RadioMedium& radio() { return *radio_; }
  [[nodiscard]] ids::IntrusionDetectionSystem& ids() { return *ids_; }
  /// Alert-to-incident correlation over the IDS stream.
  [[nodiscard]] const ids::AlertCorrelator& incidents() const { return correlator_; }

  /// Primary (first) forwarder accessors — the single-machine API.
  [[nodiscard]] safety::SafetyMonitor& monitor() { return *units_[0]->monitor; }
  [[nodiscard]] MachineId forwarder_id() const { return units_[0]->machine; }
  [[nodiscard]] NodeId forwarder_node() const { return units_[0]->node; }

  /// Fleet accessors.
  [[nodiscard]] std::size_t forwarder_count() const { return units_.size(); }
  [[nodiscard]] MachineId forwarder_id(std::size_t index) const {
    return units_.at(index)->machine;
  }
  [[nodiscard]] safety::SafetyMonitor& monitor(std::size_t index) {
    return *units_.at(index)->monitor;
  }

  [[nodiscard]] MachineId drone_id() const { return drone_id_; }
  [[nodiscard]] NodeId drone_node() const { return drone_node_; }

  /// Attaches an attacker radio (used by the attack benches).
  net::AttackerNode& add_attacker(core::Vec2 position, int level);

  /// Applies a sensor attack to a forwarder's perception (default: primary).
  void attack_forwarder_sensor(const sensors::SensorAttack& attack,
                               std::size_t index = 0);

  [[nodiscard]] SecurityMetrics security_metrics() const;
  [[nodiscard]] const SafetyOutcome& safety_outcome() const { return outcome_; }

  /// The shared telemetry for the full stack: worksite counters and step
  /// spans, planner/radio/IDS instruments, and the flight recorder all
  /// land here. Benches export it via obs::write_bench_artifact. Until
  /// establish() has run (the first step() runs it) the recorder holds no
  /// "secure" handshake event; FleetService's export and flight reads run
  /// it first.
  [[nodiscard]] obs::Telemetry& telemetry() { return *telemetry_; }
  [[nodiscard]] const obs::Telemetry& telemetry() const { return *telemetry_; }
  [[nodiscard]] const SecuredWorksiteConfig& config() const { return config_; }

  /// Tamper-evident machine event log (EU 2023/1230 Annex III 1.1.9
  /// evidence duty). Records e-stops, degradations and critical alerts.
  [[nodiscard]] const secure::AuditLog& audit() const { return *audit_; }

  /// SoS emergent-behaviour monitor over the worksite event bus.
  [[nodiscard]] const sos::EmergentBehaviorMonitor& emergent() const {
    return *emergent_;
  }

  /// SOTIF evidence: every blind (uncovered) person-step is recorded
  /// against the triggering condition that caused it (which occluder
  /// class blocked the sight line), feeding the ISO 21448 scenario-area
  /// analysis of §III-C.
  [[nodiscard]] const safety::SotifAnalysis& sotif() const { return sotif_; }

  /// Channel in use at `time` (constant unless frequency_hopping).
  [[nodiscard]] std::uint32_t channel_at(core::SimTime time) const;

  /// A forwarder's private perception-noise stream (determinism tests
  /// peek at these to prove fleet growth leaves them untouched).
  [[nodiscard]] core::Rng& unit_sense_rng(std::size_t index) {
    return *units_.at(index)->sense_rng;
  }

 private:
  // Per-human encounter tracking (ground truth for time-to-detect /
  // misses / coverage), per machine.
  struct EncounterState {
    bool active = false;
    core::SimTime started = 0;
    bool detected = false;
  };

  /// One autonomous forwarder with its full on-machine stack.
  struct ForwarderUnit {
    std::size_t index = 0;
    MachineId machine;
    NodeId node;
    std::uint64_t sender_id = 0;  ///< application-level sender id
    std::unique_ptr<sensors::PerceptionSensor> sensor;
    /// Per-unit perception-noise stream, fork_stream-keyed by sender id:
    /// adding or removing fleet members never perturbs another unit's
    /// sense draws, and nothing in the step loop touches the shared
    /// worksite stream.
    std::optional<core::Rng> sense_rng;
    /// This step's detections, sensed into a buffer reused across steps.
    std::vector<sensors::Detection> detections;
    /// step() fuses once and hands the tracks to the monitor;
    /// track_ground_truth reads the same tracks in place (fusion->tracks()).
    std::unique_ptr<safety::DetectionFusion> fusion;
    std::unique_ptr<safety::SafetyMonitor> monitor;
    std::optional<pki::Identity> identity;
    std::optional<secure::Session> rx_session;  ///< drone -> this machine
    std::optional<secure::Session> drone_tx;    ///< drone-side endpoint
    /// Plaintext scratch for opening the drone's records, reused across
    /// records; it grows to the largest record seen.
    core::Bytes open_scratch;
    std::uint64_t telemetry_sequence = 0;
    core::SimTime last_telemetry = -1000000;
    std::unordered_map<std::uint64_t, EncounterState> encounters;
  };

  void setup_units();
  void setup_pki();
  void setup_radio();
  void on_forwarder_frame(ForwarderUnit& unit, const net::Frame& frame,
                          core::SimTime now);
  void drone_report_cycle(core::SimTime now);
  void forwarder_sense_cycle(core::SimTime now);
  void telemetry_cycle(core::SimTime now);
  void track_ground_truth(core::SimTime now);
  /// Sends one encoded inner message to `unit`: sealed behind a
  /// kSecureRecord header in secure mode, as-is otherwise.
  void send_from_drone(ForwarderUnit& unit, std::uint64_t sequence,
                       std::span<const std::uint8_t> message, core::SimTime now);

  SecuredWorksiteConfig config_;
  /// Declared before every component that instruments into it (worksite,
  /// radio, IDS hold raw pointers), so it is destroyed last.
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<sim::Worksite> worksite_;
  std::unique_ptr<net::RadioMedium> radio_;
  std::unique_ptr<ids::IntrusionDetectionSystem> ids_;
  ids::AlertCorrelator correlator_;

  // PKI. drbg_ serves set-up only: the constructor's root CA and forwarder
  // enrolment, then establish()'s drone enrolment and handshakes.
  std::unique_ptr<crypto::Drbg> drbg_;
  std::unique_ptr<pki::CertificateAuthority> ca_;
  pki::TrustStore trust_;
  std::optional<pki::Identity> drone_identity_;

  // Actors
  std::vector<std::unique_ptr<ForwarderUnit>> units_;
  MachineId harvester_id_;
  MachineId drone_id_;
  NodeId drone_node_{2};
  NodeId operator_node_{3};

  std::unique_ptr<sensors::PerceptionSensor> drone_sensor_;
  std::optional<core::Rng> drone_sense_rng_;
  /// The drone's detections this step, sensed into a buffer reused
  /// across steps.
  std::vector<sensors::Detection> drone_detections_;
  std::unique_ptr<secure::AuditLog> audit_;
  std::unique_ptr<sos::EmergentBehaviorMonitor> emergent_;
  std::vector<std::unique_ptr<net::AttackerNode>> attackers_;

  // Security outcome counters, registry-backed ("secure.*"): handles
  // resolved once in the constructor; all increments happen in serial
  // contexts (radio delivery callbacks, IDS alert handler, drone cycle).
  obs::Counter* c_reports_sent_ = nullptr;
  obs::Counter* c_reports_accepted_ = nullptr;
  obs::Counter* c_reports_rejected_ = nullptr;
  obs::Counter* c_spoofed_accepted_ = nullptr;
  obs::Counter* c_estops_from_ids_ = nullptr;
  /// Anti-replay classification of secure-record drops/acceptances
  /// ("secure.records_*"): replay = true duplicate, too_old = behind the
  /// sliding window, out_of_order = genuine record accepted below the
  /// high-water mark (the min-heap radio queue reorders routinely).
  obs::Counter* c_replay_rejected_ = nullptr;
  obs::Counter* c_too_old_rejected_ = nullptr;
  obs::Counter* c_out_of_order_accepted_ = nullptr;
  /// Full-stack step wall time ("wall." prefix: full artifact only).
  obs::Histogram* h_step_wall_ = nullptr;
  /// Tracer phase of establish()'s one run.
  obs::PhaseId ph_establish_ = 0;
  bool established_ = false;

  SafetyOutcome outcome_;
  safety::SotifAnalysis sotif_;

  std::uint64_t drone_sequence_ = 0;

  /// Zone-query scratch for track_ground_truth (allocation-free after
  /// warmup).
  std::vector<const sim::Human*> zone_people_;

  static constexpr double kTrackAssociationM = 4.0;
};

}  // namespace agrarsec::integration
