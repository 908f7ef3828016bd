// Embedded operations console for a running FleetService — the paper's
// §IV-B consequence made concrete: with limited connectivity, security
// operations (monitoring, incident response, evidence export) must run on
// the machine itself, so the telemetry substrate is served live instead
// of only exiting the process as files.
//
// Two planes, two listeners, two threads:
//
//  - HTTP plane (net::HttpServer, read-only): live JSON snapshots of the
//    running fleet, served to N concurrent observers by the poll-driven
//    server. GET /metrics (full fleet telemetry artifact incl. "wall."
//    instruments), /sessions (per-session status + step counts),
//    /utilization (per-shard busy-time table), /flight/<session>?n=K
//    (flight-recorder tail; add ?cursor=C for sequenced non-overlapping
//    polls), /ids (the console's own control-plane sensor counters), plus
//    two Server-Sent-Events streams: /stream/flight/<session>?cursor=C
//    (live flight-recorder events, payload bytes identical to the polled
//    JSONL export, explicit `dropped` frames when a subscriber lags past
//    the ring) and /stream/metrics (periodic snapshot push). Strictly
//    read-only by construction: every route maps to a const FleetService
//    snapshot method and POST is refused outright.
//
//  - Control plane (framed TCP + secure::Session): the mutating verbs —
//    pause / resume / step / inject-attack / export — are reachable only
//    through our own Noise-style channel: the client runs the SIGMA-style
//    pki/ handshake (flights framed as be32 length-prefixed messages),
//    then every command travels as a sealed secure::Record whose sliding
//    replay window now tolerates reordering. JSON-RPC-style plaintext:
//      {"id":1,"method":"pause","params":{}}
//    answered with {"id":1,"result":...} or {"id":1,"error":{...}}.
//    Requests parse through core::Json, which rejects nesting deeper than
//    Json::kMaxDepth; an id or integer param (session, level, steps) that
//    is not an integral number in range is refused (bad_request under id
//    0, or bad_param) before anything converts it.
//    An unauthenticated or malformed record is dropped (counted, never
//    dispatched), so byte flips on the wire cannot mutate fleet state.
//
// Both planes serialize against the simulation through FleetService's
// internal mutex — a snapshot lands between step batches, never inside
// one, and determinism of the per-session exports is untouched by an
// attached console (pinned by the console tests).
//
// The console is also a first-class IDS sensor: the control plane feeds
// its own security-relevant events (handshake failures, authorization
// denials, rejected records, command rates) into a private
// ids::IntrusionDetectionSystem via observe_control — an attack on the
// control plane is itself a detectable event. The sensor's alerts are
// served at /ids and never touch the fleet's deterministic telemetry.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/result.h"
#include "crypto/random.h"
#include "ids/ids.h"
#include "net/http.h"
#include "net/stream.h"
#include "pki/identity.h"
#include "pki/trust_store.h"
#include "secure/session.h"
#include "service/fleet_service.h"

namespace agrarsec::service {

/// AAD bound into every control record (domain-separates console traffic
/// from other uses of the same session keys).
inline constexpr std::string_view kConsoleAad = "agrarsec-console-v1";

struct ConsoleConfig {
  std::uint16_t http_port = 0;     ///< 0 = ephemeral
  std::uint16_t control_port = 0;  ///< 0 = ephemeral
  int io_timeout_ms = 2000;
  /// Leaf subjects allowed on the control plane. Empty = any peer that
  /// validates against the trust store.
  std::vector<std::string> allowed_subjects;
  /// Control-session rotation: after this many dispatched commands the
  /// server closes the control connection, forcing the operator client to
  /// re-run the PKI handshake (fresh session keys + replay window). 0
  /// disables rotation; the hard cap of 1024 commands per connection
  /// still applies.
  int rotate_after_commands = 256;
  /// Thresholds for the console's control-plane IDS sensor (anomaly
  /// detectors are forced off — the sensor is signature-only).
  ids::IdsConfig sensor;
};

class ConsoleService {
 public:
  /// The console authenticates as `identity` (enroll it with an
  /// operator-station role) and validates clients against `trust`.
  ConsoleService(FleetService& fleet, pki::Identity identity,
                 pki::TrustStore trust, std::uint64_t drbg_seed,
                 ConsoleConfig config = {});
  ~ConsoleService();

  ConsoleService(const ConsoleService&) = delete;
  ConsoleService& operator=(const ConsoleService&) = delete;

  /// Binds both listeners and launches both server threads.
  core::Status start();
  /// Stops and joins both threads. Idempotent.
  void stop();
  [[nodiscard]] bool running() const { return http_.running(); }

  [[nodiscard]] std::uint16_t http_port() const { return http_.port(); }
  [[nodiscard]] std::uint16_t control_port() const { return control_listener_.port(); }

  /// Control-plane counters (server-thread written, relaxed reads).
  [[nodiscard]] std::uint64_t control_sessions_established() const {
    return sessions_established_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t commands_dispatched() const {
    return commands_dispatched_.load(std::memory_order_relaxed);
  }
  /// Frames dropped before dispatch: bad framing, failed authentication,
  /// replayed records, malformed JSON.
  [[nodiscard]] std::uint64_t records_rejected() const {
    return records_rejected_.load(std::memory_order_relaxed);
  }
  /// Control sessions closed by the rotation policy (the client must
  /// re-handshake to continue).
  [[nodiscard]] std::uint64_t control_rotations() const {
    return control_rotations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const net::HttpServer& http() const { return http_; }

  /// Control-plane sensor alert count for one rule (e.g.
  /// "control-bruteforce"); thread-safe against the control thread.
  [[nodiscard]] std::uint64_t sensor_alert_count(const std::string& rule) const;
  [[nodiscard]] std::uint64_t sensor_total_alerts() const;

 private:
  net::HttpResponse route(const net::HttpRequest& request);
  net::HttpResponse route_flight(const net::HttpRequest& request,
                                 std::string_view id_text);
  net::HttpResponse route_stream_flight(const net::HttpRequest& request,
                                        std::string_view id_text);
  net::HttpResponse route_stream_metrics();
  [[nodiscard]] std::string ids_json() const;
  void control_loop();
  void handle_control_connection(net::TcpStream stream);
  /// Feeds one control-plane event into the IDS sensor (control thread).
  void sense(ids::ControlPlaneEvent event, std::uint64_t subject = 0);
  /// Executes one authenticated command; returns the response JSON.
  std::string dispatch(std::string_view plaintext);

  FleetService& fleet_;
  pki::Identity identity_;
  pki::TrustStore trust_;
  crypto::Drbg drbg_;  ///< control-thread only
  ConsoleConfig config_;

  net::HttpServer http_;
  net::TcpListener control_listener_;
  std::thread control_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> sessions_established_{0};
  std::atomic<std::uint64_t> commands_dispatched_{0};
  std::atomic<std::uint64_t> records_rejected_{0};
  std::atomic<std::uint64_t> control_rotations_{0};

  /// Control-plane sensor: written by the control thread, read by the
  /// HTTP thread (/ids) — guarded by sensor_mu_, never by fleet state.
  mutable std::mutex sensor_mu_;
  ids::IntrusionDetectionSystem sensor_;
};

/// Operator-side control client: connects, runs the handshake as
/// initiator, then exchanges sealed JSON-RPC records. Used by the tests,
/// the fleet_console example and the check.sh smoke.
class ConsoleClient {
 public:
  /// `expected_peer`: require the console's leaf subject (empty = any
  /// subject the trust store validates).
  static core::Result<ConsoleClient> connect(std::uint16_t control_port,
                                             const pki::Identity& identity,
                                             const pki::TrustStore& trust,
                                             crypto::Drbg& drbg,
                                             std::string expected_peer = {},
                                             int timeout_ms = 2000);

  /// Sends {"id":<auto>,"method":method,"params":params_json} sealed, and
  /// returns the response plaintext (a JSON object).
  core::Result<std::string> call(std::string_view method,
                                 std::string_view params_json = "{}");
  /// Sends `request` sealed, verbatim (no id is added), and returns the
  /// response plaintext — how the tests put malformed JSON-RPC through an
  /// authenticated channel.
  core::Result<std::string> call_raw(std::string_view request);

  /// Sends raw bytes as one frame, bypassing the record layer — the
  /// torture tests use this to prove malformed input cannot crash or
  /// mutate the fleet.
  [[nodiscard]] bool send_raw_frame(std::span<const std::uint8_t> payload);

  [[nodiscard]] const std::string& peer_subject() const {
    return session_.peer_subject();
  }

 private:
  ConsoleClient(net::TcpStream stream, secure::Session session, int timeout_ms)
      : stream_(std::move(stream)), session_(std::move(session)),
        timeout_ms_(timeout_ms) {}

  net::TcpStream stream_;
  secure::Session session_;
  std::uint64_t next_id_ = 1;
  int timeout_ms_;
};

/// Minimal loopback HTTP GET over a raw socket (one-shot connection).
/// Returns the response body; fails on connect/timeout/non-200.
core::Result<std::string> http_get_local(std::uint16_t port, std::string_view target,
                                         int timeout_ms = 2000);

}  // namespace agrarsec::service
