#include "ids/ids.h"

#include <cmath>

#include "core/geometry.h"

namespace agrarsec::ids {

namespace {
/// A plaintext message whose timestamp lags site time by more than this
/// raises "stale-timestamp".
constexpr core::SimDuration kMaxTimestampLag = 10 * core::kSecond;
/// CUSUM drift allowance and alarm threshold of the rate detector.
constexpr double kCusumSlack = 5.0;
constexpr double kCusumThreshold = 120.0;
/// Fastest credible machine speed: telemetry implying more than twice it
/// raises "spoofed-position".
constexpr double kMaxSpeedMps = 12.0;
}  // namespace

std::string_view alert_severity_name(AlertSeverity severity) {
  switch (severity) {
    case AlertSeverity::kInfo: return "info";
    case AlertSeverity::kWarning: return "warning";
    case AlertSeverity::kCritical: return "critical";
  }
  return "?";
}

IntrusionDetectionSystem::IntrusionDetectionSystem(IdsConfig config,
                                                   obs::Telemetry* telemetry)
    : config_(config),
      ewma_(config.ewma_alpha, config.ewma_k),
      cusum_(0.0, kCusumSlack, kCusumThreshold),
      control_command_rate_(
          config.control_flood_window >= 10 ? config.control_flood_window / 10 : 1,
          10) {
  if (telemetry != nullptr) {
    telemetry_ = telemetry;
  } else {
    owned_telemetry_ = std::make_unique<obs::Telemetry>();
    telemetry_ = owned_telemetry_.get();
  }
  c_alerts_ = &telemetry_->registry().counter("ids.alerts");
}

void IntrusionDetectionSystem::register_node(std::uint64_t sender_id, bool may_estop) {
  auto& s = senders_[sender_id];
  s.known = true;
  s.may_estop = may_estop;
}

IntrusionDetectionSystem::SenderState& IntrusionDetectionSystem::state_for(
    std::uint64_t sender_id) {
  return senders_[sender_id];
}

void IntrusionDetectionSystem::raise(core::SimTime now, std::string rule,
                                     AlertSeverity severity, std::uint64_t subject,
                                     std::string detail) {
  Alert alert;
  alert.id = alert_ids_.next();
  alert.time = now;
  alert.rule = std::move(rule);
  alert.severity = severity;
  alert.subject = subject;
  alert.detail = std::move(detail);

  c_alerts_->add();
  auto it = counts_.find(alert.rule);
  if (it == counts_.end()) {
    obs::Counter& c = telemetry_->registry().counter("ids.alerts." + alert.rule);
    it = counts_.emplace(alert.rule, &c).first;
  }
  it->second->add();
  telemetry_->recorder().record(now, "ids", alert.rule, alert.subject,
                                static_cast<std::uint64_t>(alert.severity), 0,
                                alert.detail);
  if (handler_) handler_(alert);
}

void IntrusionDetectionSystem::check_signatures(const net::MessageView& message,
                                                 core::SimTime now) {
  SenderState& sender = state_for(message.sender);

  if (!sender.known) {
    raise(now, "unknown-sender", AlertSeverity::kWarning, message.sender,
          "message type " + std::string(net::message_type_name(message.type)) +
              " from unregistered id");
  }

  // Replay / sequence regression. Handshake and secure records manage
  // their own sequence spaces, so only plaintext app messages are checked.
  if (message.type != net::MessageType::kHandshake &&
      message.type != net::MessageType::kSecureRecord) {
    if (sender.seen_sequence && message.sequence <= sender.last_sequence) {
      raise(now, "replay", AlertSeverity::kCritical, message.sender,
            "sequence " + std::to_string(message.sequence) + " <= high-water " +
                std::to_string(sender.last_sequence));
    } else {
      sender.last_sequence = message.sequence;
      sender.seen_sequence = true;
    }

    if (message.timestamp + kMaxTimestampLag < now) {
      raise(now, "stale-timestamp", AlertSeverity::kWarning, message.sender,
            "timestamp lags site time by " +
                std::to_string(now - message.timestamp) + " ms");
    }
  }

  if (message.type == net::MessageType::kTelemetry) {
    if (const auto body = net::TelemetryBody::decode(message.body)) {
      if (sender.last_telemetry) {
        const double dt =
            static_cast<double>(now - sender.last_telemetry_time) / core::kSecond;
        if (dt > 1e-3) {
          const double dist = core::distance(
              core::Vec2{body->x, body->y},
              core::Vec2{sender.last_telemetry->x, sender.last_telemetry->y});
          if (dist / dt > kMaxSpeedMps * 2.0) {
            raise(now, "spoofed-position", AlertSeverity::kCritical, message.sender,
                  "implied speed " + std::to_string(dist / dt) + " m/s");
          }
        }
      }
      sender.last_telemetry = *body;
      sender.last_telemetry_time = now;
    } else {
      raise(now, "malformed", AlertSeverity::kWarning, message.sender,
            "undecodable telemetry body");
    }
  }

  if (message.type == net::MessageType::kEstopCommand && !sender.may_estop) {
    raise(now, "unauthorized-estop", AlertSeverity::kCritical, message.sender,
          "e-stop command from sender without authority");
  }
}

void IntrusionDetectionSystem::observe(const net::Frame& frame, core::SimTime now) {
  ++frames_this_tick_;

  const auto message = net::MessageView::decode(frame.payload);
  if (config_.enable_signatures) {
    if (!message) {
      raise(now, "malformed", AlertSeverity::kInfo, 0, "undecodable frame payload");
    } else {
      check_signatures(*message, now);
    }
  }

  if (message) {
    SenderState& sender = state_for(message->sender);
    sender.rate.add(now);
    if (config_.enable_signatures &&
        sender.rate.count(now) > config_.flood_threshold) {
      raise(now, "flood", AlertSeverity::kWarning, message->sender,
            "per-source rate above " + std::to_string(config_.flood_threshold) +
                " frames/s");
    }
  }
}

void IntrusionDetectionSystem::tick(core::SimTime now) {
  if (!config_.enable_anomaly) {
    frames_this_tick_ = 0;
    return;
  }
  const auto sample = static_cast<double>(frames_this_tick_);
  frames_this_tick_ = 0;

  if (ewma_.update(sample)) {
    raise(now, "rate-anomaly", AlertSeverity::kWarning, 0,
          "aggregate rate " + std::to_string(sample) + " above EWMA band (mean " +
              std::to_string(ewma_.mean()) + ")");
  }
  // CUSUM drifts against the learned EWMA baseline.
  cusum_.set_target(ewma_.mean());
  if (cusum_.update(sample)) {
    raise(now, "rate-shift", AlertSeverity::kWarning, 0,
          "sustained aggregate rate shift detected");
  }
}

void IntrusionDetectionSystem::observe_control(ControlPlaneEvent event,
                                               core::SimTime now,
                                               std::uint64_t subject) {
  switch (event) {
    case ControlPlaneEvent::kHandshakeOk:
      control_fail_streak_ = 0;
      break;
    case ControlPlaneEvent::kHandshakeFailed:
    case ControlPlaneEvent::kAuthzDenied:
      // Streak counter, not a time window: a brute-force probe is a run of
      // failures with no genuine session in between, however it is paced.
      if (++control_fail_streak_ == config_.control_bruteforce_threshold) {
        raise(now, "control-bruteforce", AlertSeverity::kCritical, subject,
              std::to_string(control_fail_streak_) +
                  " consecutive failed control-plane handshakes");
        control_fail_streak_ = 0;
      }
      break;
    case ControlPlaneEvent::kRecordRejected:
      if (++control_reject_streak_ == config_.control_replay_threshold) {
        raise(now, "control-replay-burst", AlertSeverity::kCritical, subject,
              std::to_string(control_reject_streak_) +
                  " rejected control records without a genuine one between");
        control_reject_streak_ = 0;
      }
      break;
    case ControlPlaneEvent::kRecordAccepted:
      control_reject_streak_ = 0;
      break;
    case ControlPlaneEvent::kCommandDispatched:
      control_command_rate_.add(now);
      if (control_command_rate_.count(now) > config_.control_flood_threshold) {
        raise(now, "control-flood", AlertSeverity::kWarning, subject,
              "command rate above " +
                  std::to_string(config_.control_flood_threshold) +
                  " per flood window");
      }
      break;
  }
}

std::uint64_t IntrusionDetectionSystem::alert_count(const std::string& rule) const {
  const auto it = counts_.find(rule);
  return it == counts_.end() ? 0 : it->second->value();
}

void IntrusionDetectionSystem::set_alert_handler(
    std::function<void(const Alert&)> handler) {
  handler_ = std::move(handler);
}

}  // namespace agrarsec::ids
