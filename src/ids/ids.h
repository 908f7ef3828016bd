// Worksite intrusion detection system: a signature rule engine plus
// per-sender statistical detectors over the radio traffic. Designed for
// the constraint the paper highlights (Table I, §IV-B): remote sites have
// no cloud backhaul, so detection and response run locally.
//
// Rules implemented (stable ids, see Alert::rule):
//   "unknown-sender"   message from an id not in the site roster
//   "spoofed-position" telemetry kinematically impossible vs. last report
//   "replay"           (sender, sequence) not strictly increasing
//   "stale-timestamp"  message timestamp far behind site time
//   "flood"            per-source frame rate above threshold
//   "malformed"        undecodable message
//   "unauthorized-estop" e-stop from a sender without e-stop authority
//   "rate-anomaly"     EWMA band violation on aggregate traffic
//   "rate-shift"       CUSUM drift on aggregate traffic
//
// Control-plane sensor family (observe_control; fed by the operations
// console, which is itself an attack surface — handshake failures,
// rejected records and command rates are detectable events):
//   "control-bruteforce"   consecutive failed handshakes/authz denials
//   "control-replay-burst" rejected sealed records with no genuine one between
//   "control-flood"        authenticated command rate above threshold
//
// The IDS keeps no alert list (DESIGN.md §22): each raise bumps the
// "ids.alerts" and "ids.alerts.<rule>" counters, records a flight event
// and calls the alert handler, which is all any reader consumes.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

#include "core/types.h"
#include "obs/telemetry.h"
#include "ids/alert.h"
#include "ids/anomaly.h"
#include "net/message.h"
#include "net/radio.h"

namespace agrarsec::ids {

struct IdsConfig {
  bool enable_signatures = true;
  bool enable_anomaly = true;
  std::uint64_t flood_threshold = 60;    ///< frames / source / second
  double ewma_alpha = 0.05;
  double ewma_k = 6.0;

  // Control-plane sensor thresholds (observe_control). The streak-based
  // rules are event-count triggers on purpose: they fire deterministically
  // regardless of how fast the attacker (or a test) drives the channel.
  std::uint64_t control_bruteforce_threshold = 5;  ///< consecutive failures
  std::uint64_t control_replay_threshold = 8;      ///< rejects since last genuine record
  std::uint64_t control_flood_threshold = 30;      ///< commands per flood window
  core::SimDuration control_flood_window = 10 * core::kSecond;
};

/// One observable event on the console control plane.
enum class ControlPlaneEvent : std::uint8_t {
  kHandshakeOk = 0,        ///< authenticated + authorized session established
  kHandshakeFailed = 1,    ///< handshake flight undecodable or crypto failure
  kAuthzDenied = 2,        ///< authenticated subject not on the allow list
  kRecordRejected = 3,     ///< sealed record undecodable / AEAD or replay reject
  kRecordAccepted = 4,     ///< sealed record opened within the replay window
  kCommandDispatched = 5,  ///< verb executed against the fleet
};

class IntrusionDetectionSystem {
 public:
  /// With no `telemetry` the IDS owns a private obs::Telemetry; inject a
  /// shared one to merge alert counters ("ids.alerts", "ids.alerts.<rule>")
  /// and per-alert flight events into a stack-wide export.
  explicit IntrusionDetectionSystem(IdsConfig config = {},
                                    obs::Telemetry* telemetry = nullptr);

  /// Declares a legitimate participant. `may_estop` grants e-stop authority.
  void register_node(std::uint64_t sender_id, bool may_estop);

  /// Observes one frame (wire bytes; the IDS parses the plaintext message
  /// layer in place with net::MessageView — encrypted records are checked
  /// at rate level only).
  void observe(const net::Frame& frame, core::SimTime now);

  /// Advances window-based detectors; call once per sim step.
  void tick(core::SimTime now);

  /// Observes one control-plane event from the operations console
  /// (first-class sensor: an attack on the control plane is itself a
  /// detectable event). `subject` is the peer identity when known.
  /// Timestamps are whatever clock the console runs on (wall ms there) —
  /// only the flood rule is time-window based; the streak rules count
  /// events.
  void observe_control(ControlPlaneEvent event, core::SimTime now,
                       std::uint64_t subject = 0);

  [[nodiscard]] std::uint64_t alert_count(const std::string& rule) const;
  /// Every alert raised (the "ids.alerts" registry counter).
  [[nodiscard]] std::uint64_t total_alerts() const { return c_alerts_->value(); }

  /// Callback invoked on every raised alert (safety monitor hook).
  void set_alert_handler(std::function<void(const Alert&)> handler);

  [[nodiscard]] const IdsConfig& config() const { return config_; }

  [[nodiscard]] obs::Telemetry& telemetry() { return *telemetry_; }
  [[nodiscard]] const obs::Telemetry& telemetry() const { return *telemetry_; }

 private:
  struct SenderState {
    bool known = false;
    bool may_estop = false;
    std::optional<net::TelemetryBody> last_telemetry;
    core::SimTime last_telemetry_time = 0;
    std::uint64_t last_sequence = 0;
    bool seen_sequence = false;
    RateWindow rate{100, 10};  ///< 1-second window at 100 ms buckets
  };

  void raise(core::SimTime now, std::string rule, AlertSeverity severity,
             std::uint64_t subject, std::string detail);
  SenderState& state_for(std::uint64_t sender_id);
  void check_signatures(const net::MessageView& message, core::SimTime now);

  IdsConfig config_;
  std::unordered_map<std::uint64_t, SenderState> senders_;
  /// Per-rule registry counters ("ids.alerts.<rule>"), cached by rule so
  /// raise() pays one hash lookup, not a registry map walk.
  std::unordered_map<std::string, obs::Counter*> counts_;
  std::function<void(const Alert&)> handler_;
  std::unique_ptr<obs::Telemetry> owned_telemetry_;
  obs::Telemetry* telemetry_ = nullptr;
  obs::Counter* c_alerts_ = nullptr;  ///< "ids.alerts" (all rules)
  IdAllocator<AlertId> alert_ids_;

  EwmaDetector ewma_;
  CusumDetector cusum_;
  std::uint64_t frames_this_tick_ = 0;

  // Control-plane sensor state.
  std::uint64_t control_fail_streak_ = 0;    ///< failures since last good handshake
  std::uint64_t control_reject_streak_ = 0;  ///< rejects since last genuine record
  RateWindow control_command_rate_;          ///< flood window (see IdsConfig)
};

}  // namespace agrarsec::ids
