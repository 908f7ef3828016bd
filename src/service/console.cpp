#include "service/console.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "core/json.h"
#include "obs/trace.h"
#include "secure/handshake.h"

namespace agrarsec::service {

namespace {

/// Sim time used to validate client certificate chains (the console has
/// no sim clock of its own; operators enroll long-lived certs).
constexpr std::int64_t kCertValidationTime = 0;
/// Events returned by /flight/<session> when ?n= is absent.
constexpr std::size_t kFlightTailDefault = 64;
/// Hard cap on commands served over one control connection.
constexpr int kMaxCommandsPerConnection = 1024;
/// Concurrent HTTP connections served by the poll loop (beyond it,
/// deterministic 503).
constexpr std::size_t kMaxHttpConnections = 32;
/// Snapshot cadence of the /stream/metrics SSE push.
constexpr std::uint64_t kStreamIntervalMs = 200;
/// Max flight events forwarded per SSE pump tick and per connection.
constexpr std::size_t kStreamChunkEvents = 256;

/// Wall-clock milliseconds for the control-plane sensor. The sensor's
/// telemetry is private to the console and never part of a deterministic
/// export, so wall time is the honest clock here.
core::SimTime sensor_now_ms() {
  return static_cast<core::SimTime>(obs::Tracer::now_ns() / 1000000ull);
}

/// Appends one SSE frame: optional event name, optional id, and the
/// payload split over `data:` lines (SSE forbids raw newlines in a frame;
/// multi-line payloads arrive as consecutive data lines).
void append_sse_event(std::string& out, std::string_view event,
                      const std::uint64_t* id, std::string_view payload) {
  if (!event.empty()) {
    out += "event: ";
    out += event;
    out.push_back('\n');
  }
  if (id != nullptr) out += "id: " + std::to_string(*id) + "\n";
  while (!payload.empty() && payload.back() == '\n') payload.remove_suffix(1);
  std::size_t pos = 0;
  while (pos <= payload.size()) {
    std::size_t nl = payload.find('\n', pos);
    if (nl == std::string_view::npos) nl = payload.size();
    out += "data: ";
    out.append(payload.data() + pos, nl - pos);
    out.push_back('\n');
    if (nl == payload.size()) break;
    pos = nl + 1;
  }
  out.push_back('\n');
}

std::span<const std::uint8_t> console_aad() {
  return {reinterpret_cast<const std::uint8_t*>(kConsoleAad.data()),
          kConsoleAad.size()};
}

std::string rpc_error(std::uint64_t id, std::string_view code,
                      std::string_view message) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"error\":{\"code\":";
  core::append_json_string(out, code);
  out += ",\"message\":";
  core::append_json_string(out, message);
  out += "}}";
  return out;
}

std::string rpc_result(std::uint64_t id, std::string_view result_json) {
  return "{\"id\":" + std::to_string(id) + ",\"result\":" +
         std::string(result_json) + "}";
}

/// Numeric member `key` of `object` with default (also when `object` is
/// absent or not an object); nullopt when present but not a number.
std::optional<double> number_or(const core::Json* object, std::string_view key,
                                double fallback) {
  const core::Json* v =
      object != nullptr && object->is(core::Json::Kind::kObject) ? object->find(key)
                                                                 : nullptr;
  if (v == nullptr) return fallback;
  if (!v->is(core::Json::Kind::kNumber)) return std::nullopt;
  return v->as_number();
}

/// Integers beyond 2^53 are not all exact doubles; no id or param needs them.
constexpr std::int64_t kMaxExactInteger = std::int64_t{1} << 53;

/// Integer member with default: nullopt unless the value (`fallback` when
/// absent) is an integral number in [lo, hi], so a fallback outside the
/// range makes the member required. The range check runs on the double
/// before the conversion, because converting an out-of-range double to an
/// integer type is undefined behaviour.
std::optional<std::int64_t> integer_or(const core::Json* object, std::string_view key,
                                       std::int64_t fallback, std::int64_t lo,
                                       std::int64_t hi) {
  const auto v = number_or(object, key, static_cast<double>(fallback));
  if (!v || *v < static_cast<double>(lo) || *v > static_cast<double>(hi) ||
      std::trunc(*v) != *v) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(*v);
}

bool parse_session_id(std::string_view text, SessionId& out) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return false;
  out = value;
  return true;
}

}  // namespace

// --- ConsoleService --------------------------------------------------------

ConsoleService::ConsoleService(FleetService& fleet, pki::Identity identity,
                               pki::TrustStore trust, std::uint64_t drbg_seed,
                               ConsoleConfig config)
    : fleet_(fleet),
      identity_(std::move(identity)),
      trust_(std::move(trust)),
      drbg_(drbg_seed, "console-control"),
      config_(std::move(config)),
      http_(net::HttpServerConfig{.port = config_.http_port,
                                  .io_timeout_ms = config_.io_timeout_ms,
                                  .max_requests_per_connection = 128,
                                  .max_connections = kMaxHttpConnections,
                                  .limits = {}}),
      sensor_([&] {
        // Signature-only sensor with a private telemetry stack: its
        // counters and flight events stay out of every fleet export.
        ids::IdsConfig c = config_.sensor;
        c.enable_anomaly = false;
        return c;
      }()) {}

std::uint64_t ConsoleService::sensor_alert_count(const std::string& rule) const {
  const std::lock_guard<std::mutex> lock(sensor_mu_);
  return sensor_.alert_count(rule);
}

std::uint64_t ConsoleService::sensor_total_alerts() const {
  const std::lock_guard<std::mutex> lock(sensor_mu_);
  return sensor_.total_alerts();
}

void ConsoleService::sense(ids::ControlPlaneEvent event, std::uint64_t subject) {
  const std::lock_guard<std::mutex> lock(sensor_mu_);
  sensor_.observe_control(event, sensor_now_ms(), subject);
}

ConsoleService::~ConsoleService() { stop(); }

core::Status ConsoleService::start() {
  if (running()) return core::make_error("running", "console already started");
  if (auto status = control_listener_.bind_and_listen(config_.control_port);
      !status.ok()) {
    return status;
  }
  if (auto status = http_.start([this](const net::HttpRequest& request) {
        return route(request);
      });
      !status.ok()) {
    control_listener_.close();
    return status;
  }
  stop_.store(false, std::memory_order_relaxed);
  control_thread_ = std::thread([this] { control_loop(); });
  return core::Status::ok_status();
}

void ConsoleService::stop() {
  stop_.store(true, std::memory_order_relaxed);
  http_.stop();
  if (control_thread_.joinable()) control_thread_.join();
  control_listener_.close();
}

net::HttpResponse ConsoleService::route(const net::HttpRequest& request) {
  // The HTTP plane is read-only by construction; every mutating verb
  // lives behind the secure control channel.
  if (request.method == "POST") {
    return net::HttpResponse::error(
        405, "read_only",
        "mutating verbs require the authenticated control channel");
  }
  const std::string_view path = request.path();
  if (path == "/" || path == "/help") {
    return net::HttpResponse::json(
        "{\"endpoints\":[\"/metrics\",\"/sessions\",\"/utilization\",\"/ids\","
        "\"/flight/<session>?n=<events>&cursor=<seq>\","
        "\"/stream/flight/<session>?cursor=<seq>\",\"/stream/metrics\"]}");
  }
  if (path == "/metrics") return net::HttpResponse::json(fleet_.metrics_json());
  if (path == "/sessions") return net::HttpResponse::json(fleet_.sessions_json());
  if (path == "/utilization") {
    return net::HttpResponse::json(fleet_.utilization_json());
  }
  if (path == "/ids") return net::HttpResponse::json(ids_json());
  if (path == "/stream/metrics") return route_stream_metrics();
  if (constexpr std::string_view prefix = "/stream/flight/";
      path.starts_with(prefix)) {
    return route_stream_flight(request, path.substr(prefix.size()));
  }
  if (constexpr std::string_view prefix = "/flight/"; path.starts_with(prefix)) {
    return route_flight(request, path.substr(prefix.size()));
  }
  return net::HttpResponse::error(404, "not_found", std::string(path));
}

net::HttpResponse ConsoleService::route_flight(const net::HttpRequest& request,
                                               std::string_view id_text) {
  SessionId id = 0;
  if (!parse_session_id(id_text, id)) {
    return net::HttpResponse::error(400, "bad_session", "non-numeric session id");
  }
  std::size_t n = kFlightTailDefault;
  if (const std::string_view q = request.query_param("n"); !q.empty()) {
    SessionId parsed = 0;
    if (!parse_session_id(q, parsed) || parsed == 0) {
      return net::HttpResponse::error(400, "bad_param", "n must be a positive integer");
    }
    n = static_cast<std::size_t>(parsed);
  }
  std::string body;
  if (const std::string_view c = request.query_param("cursor"); !c.empty()) {
    // Sequenced poll: resume exactly after the last event of the previous
    // response (its "next_cursor") — repeated polls never overlap.
    std::uint64_t cursor = 0;
    if (!parse_session_id(c, cursor)) {
      return net::HttpResponse::error(400, "bad_param",
                                      "cursor must be a non-negative integer");
    }
    body = fleet_.flight_since_json(id, cursor, n);
  } else {
    body = fleet_.flight_tail_json(id, n);
  }
  if (body.empty()) {
    return net::HttpResponse::error(404, "unknown_session",
                                    "no such session: " + std::to_string(id));
  }
  return net::HttpResponse::json(std::move(body));
}

net::HttpResponse ConsoleService::route_stream_flight(
    const net::HttpRequest& request, std::string_view id_text) {
  SessionId id = 0;
  if (!parse_session_id(id_text, id)) {
    return net::HttpResponse::error(400, "bad_session", "non-numeric session id");
  }
  std::uint64_t cursor = 0;
  if (const std::string_view c = request.query_param("cursor"); !c.empty()) {
    if (!parse_session_id(c, cursor)) {
      return net::HttpResponse::error(400, "bad_param",
                                      "cursor must be a non-negative integer");
    }
  }
  if (!fleet_.flight_read(id, cursor, 0).ok) {
    return net::HttpResponse::error(404, "unknown_session",
                                    "no such session: " + std::to_string(id));
  }
  // One SSE frame per flight event; `id:` carries the sequence number and
  // the data line is byte-identical to the polled JSONL export's line.
  // Ring overwrites are surfaced as an explicit "dropped" frame, so a
  // lagging subscriber sees its loss instead of a silent gap.
  return net::HttpResponse::event_stream(
      [this, id, cursor](std::string& out) mutable {
        const FleetService::FlightChunk chunk =
            fleet_.flight_read(id, cursor, kStreamChunkEvents);
        if (!chunk.ok) return false;  // session destroyed mid-stream
        if (chunk.dropped > 0) {
          append_sse_event(out, "dropped", nullptr,
                           "{\"dropped\":" + std::to_string(chunk.dropped) + "}");
        }
        std::uint64_t seq = chunk.first_seq;
        std::size_t pos = 0;
        while (pos < chunk.jsonl.size()) {
          std::size_t nl = chunk.jsonl.find('\n', pos);
          if (nl == std::string::npos) nl = chunk.jsonl.size();
          append_sse_event(out, {}, &seq,
                           std::string_view{chunk.jsonl}.substr(pos, nl - pos));
          ++seq;
          pos = nl + 1;
        }
        cursor = chunk.next_cursor;
        return true;
      });
}

net::HttpResponse ConsoleService::route_stream_metrics() {
  return net::HttpResponse::event_stream(
      [this, last_emit = std::uint64_t{0}](std::string& out) mutable {
        const std::uint64_t now = obs::Tracer::now_ns();
        if (last_emit != 0 && now - last_emit < kStreamIntervalMs * 1000000) return true;
        last_emit = now;
        append_sse_event(out, "sessions", nullptr, fleet_.sessions_json());
        append_sse_event(out, "ids", nullptr, ids_json());
        return true;
      });
}

std::string ConsoleService::ids_json() const {
  std::string out = "{\"sensor\":{\"alerts_total\":";
  {
    const std::lock_guard<std::mutex> lock(sensor_mu_);
    out += std::to_string(sensor_.total_alerts());
    for (const std::string_view rule :
         {"control-bruteforce", "control-flood", "control-replay-burst"}) {
      out.push_back(',');
      core::append_json_string(out, rule);
      out += ":" + std::to_string(sensor_.alert_count(std::string(rule)));
    }
  }
  out += "},\"control\":{\"sessions_established\":" +
         std::to_string(control_sessions_established());
  out += ",\"commands_dispatched\":" + std::to_string(commands_dispatched());
  out += ",\"records_rejected\":" + std::to_string(records_rejected());
  out += ",\"rotations\":" + std::to_string(control_rotations());
  out += "},\"http\":{\"connections_accepted\":" +
         std::to_string(http_.connections_accepted());
  out += ",\"connections_rejected\":" + std::to_string(http_.connections_rejected());
  out += ",\"requests_served\":" + std::to_string(http_.requests_served());
  out += ",\"protocol_errors\":" + std::to_string(http_.protocol_errors());
  out += ",\"streams_opened\":" + std::to_string(http_.streams_opened());
  out += ",\"streams_overrun\":" + std::to_string(http_.streams_overrun());
  out += "}}";
  return out;
}

void ConsoleService::control_loop() {
  // Mirror of HttpServer::serve_loop: short accept timeout so stop() is
  // observed promptly; one authenticated connection served at a time.
  while (!stop_.load(std::memory_order_relaxed)) {
    net::TcpStream conn = control_listener_.accept_conn(50);
    if (!conn.valid()) continue;
    handle_control_connection(std::move(conn));
  }
}

void ConsoleService::handle_control_connection(net::TcpStream stream) {
  const int timeout = config_.io_timeout_ms;

  // Handshake flights, one frame each. Any malformed flight closes the
  // connection before a session exists — nothing to poison.
  const auto frame1 = net::read_frame(stream, timeout);
  if (!frame1) return;
  const auto msg1 = secure::HandshakeMsg1::decode(*frame1);
  if (!msg1) {
    records_rejected_.fetch_add(1, std::memory_order_relaxed);
    sense(ids::ControlPlaneEvent::kHandshakeFailed);
    return;
  }
  secure::Handshake handshake{identity_, trust_, kCertValidationTime};
  auto msg2 = handshake.respond(*msg1, drbg_);
  if (!msg2.ok()) {
    records_rejected_.fetch_add(1, std::memory_order_relaxed);
    sense(ids::ControlPlaneEvent::kHandshakeFailed);
    return;
  }
  if (!net::write_frame(stream, msg2.value().encode(), timeout)) return;
  const auto frame3 = net::read_frame(stream, timeout);
  if (!frame3) return;
  const auto msg3 = secure::HandshakeMsg3::decode(*frame3);
  if (!msg3 || !handshake.finish(*msg3).ok()) {
    records_rejected_.fetch_add(1, std::memory_order_relaxed);
    sense(ids::ControlPlaneEvent::kHandshakeFailed);
    return;
  }
  secure::Session session = handshake.take_session();

  if (!config_.allowed_subjects.empty()) {
    const auto& allowed = config_.allowed_subjects;
    if (std::find(allowed.begin(), allowed.end(), session.peer_subject()) ==
        allowed.end()) {
      sense(ids::ControlPlaneEvent::kAuthzDenied);
      return;  // authenticated but not authorized: drop the connection
    }
  }
  sessions_established_.fetch_add(1, std::memory_order_relaxed);
  sense(ids::ControlPlaneEvent::kHandshakeOk);

  int commands = 0;
  while (!stop_.load(std::memory_order_relaxed) &&
         commands < kMaxCommandsPerConnection) {
    const auto frame = net::read_frame(stream, timeout);
    if (!frame) return;  // orderly close, timeout or oversized prefix
    const auto record = secure::Record::decode(*frame);
    if (!record) {
      records_rejected_.fetch_add(1, std::memory_order_relaxed);
      sense(ids::ControlPlaneEvent::kRecordRejected);
      continue;  // malformed framing: drop, never dispatch
    }
    auto opened = session.open(*record, console_aad());
    if (!opened.ok()) {
      // Forged, replayed or too-old record: authenticated-drop. The
      // session window advanced only if authentication succeeded, so a
      // flipped byte cannot desynchronize subsequent genuine records.
      records_rejected_.fetch_add(1, std::memory_order_relaxed);
      sense(ids::ControlPlaneEvent::kRecordRejected);
      continue;
    }
    sense(ids::ControlPlaneEvent::kRecordAccepted);
    const std::string response = dispatch(
        std::string_view{reinterpret_cast<const char*>(opened.value().data()),
                         opened.value().size()});
    commands_dispatched_.fetch_add(1, std::memory_order_relaxed);
    sense(ids::ControlPlaneEvent::kCommandDispatched);
    const secure::Record sealed = session.seal(
        core::from_string(response), console_aad());
    if (!net::write_frame(stream, sealed.encode(), timeout)) return;
    ++commands;
    if (config_.rotate_after_commands > 0 &&
        commands >= config_.rotate_after_commands) {
      // Session rotation: close after N commands so long-lived operator
      // sessions re-handshake onto fresh keys and a fresh replay window.
      control_rotations_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

std::string ConsoleService::dispatch(std::string_view plaintext) {
  std::string parse_error;
  const auto parsed = core::Json::parse(plaintext, &parse_error);
  if (!parsed || !parsed->is(core::Json::Kind::kObject)) {
    return rpc_error(0, "parse_error", parse_error.empty() ? "not an object"
                                                           : parse_error);
  }
  const auto request_id = integer_or(&*parsed, "id", 0, 0, kMaxExactInteger);
  if (!request_id) {
    return rpc_error(0, "bad_request", "id must be a non-negative integer");
  }
  const auto id = static_cast<std::uint64_t>(*request_id);
  const core::Json* methodv = parsed->find("method");
  if (methodv == nullptr || !methodv->is(core::Json::Kind::kString)) {
    return rpc_error(id, "bad_request", "missing method");
  }
  const std::string& method = methodv->as_string();
  const core::Json* params = parsed->find("params");

  if (method == "ping") return rpc_result(id, "{\"pong\":true}");
  if (method == "pause") {
    fleet_.pause();
    return rpc_result(id, "{\"paused\":true}");
  }
  if (method == "resume") {
    fleet_.resume();
    return rpc_result(id, "{\"paused\":false}");
  }
  if (method == "step") {
    const auto steps = integer_or(params, "steps", 1, 1, 100000);
    if (!steps) {
      return rpc_error(id, "bad_param", "steps must be an integer in [1, 100000]");
    }
    const std::size_t stepped =
        fleet_.control_step(static_cast<std::uint64_t>(*steps));
    return rpc_result(id, "{\"sessions_stepped\":" + std::to_string(stepped) + "}");
  }
  if (method == "inject-attack") {
    const auto session = integer_or(params, "session", -1, 0, kMaxExactInteger);
    const auto x = number_or(params, "x", 0.0);
    const auto y = number_or(params, "y", 0.0);
    const auto level = integer_or(params, "level", 2, std::numeric_limits<int>::min(),
                                  std::numeric_limits<int>::max());
    if (!session || !x || !y || !level) {
      return rpc_error(id, "bad_param", "need integer session/level, numeric x/y");
    }
    if (!fleet_.inject_attack(static_cast<SessionId>(*session), *x, *y,
                              static_cast<int>(*level))) {
      return rpc_error(id, "unknown_session",
                       "no such session: " + std::to_string(*session));
    }
    return rpc_result(id, "{\"injected\":true}");
  }
  if (method == "export") {
    const auto session = integer_or(params, "session", -1, 0, kMaxExactInteger);
    if (!session) return rpc_error(id, "bad_param", "need integer session");
    const std::string artifact =
        fleet_.session_deterministic_json(static_cast<SessionId>(*session));
    if (artifact.empty()) {
      return rpc_error(id, "unknown_session",
                       "no such session: " + std::to_string(*session));
    }
    return rpc_result(id, artifact);  // artifact is itself a JSON object
  }
  return rpc_error(id, "unknown_method", method);
}

// --- ConsoleClient ---------------------------------------------------------

core::Result<ConsoleClient> ConsoleClient::connect(std::uint16_t control_port,
                                                   const pki::Identity& identity,
                                                   const pki::TrustStore& trust,
                                                   crypto::Drbg& drbg,
                                                   std::string expected_peer,
                                                   int timeout_ms) {
  net::TcpStream stream = net::TcpStream::connect_local(control_port, timeout_ms);
  if (!stream.valid()) {
    return core::make_error("connect", "cannot reach control port " +
                                           std::to_string(control_port));
  }
  secure::Handshake handshake{identity, trust, 0, std::move(expected_peer)};
  const secure::HandshakeMsg1 msg1 = handshake.start(drbg);
  if (!net::write_frame(stream, msg1.encode(), timeout_ms)) {
    return core::make_error("io", "failed to send handshake flight 1");
  }
  const auto frame2 = net::read_frame(stream, timeout_ms);
  if (!frame2) return core::make_error("io", "no handshake flight 2");
  const auto msg2 = secure::HandshakeMsg2::decode(*frame2);
  if (!msg2) return core::make_error("bad_msg2", "malformed handshake flight 2");
  auto msg3 = handshake.consume_msg2(*msg2);
  if (!msg3.ok()) return msg3.error();
  if (!net::write_frame(stream, msg3.value().encode(), timeout_ms)) {
    return core::make_error("io", "failed to send handshake flight 3");
  }
  return ConsoleClient{std::move(stream), handshake.take_session(), timeout_ms};
}

core::Result<std::string> ConsoleClient::call(std::string_view method,
                                              std::string_view params_json) {
  std::string request = "{\"id\":" + std::to_string(next_id_++) + ",\"method\":";
  core::append_json_string(request, method);
  request += ",\"params\":";
  request += params_json;
  request += "}";
  return call_raw(request);
}

core::Result<std::string> ConsoleClient::call_raw(std::string_view request) {
  const secure::Record sealed =
      session_.seal(core::from_string(request), console_aad());
  if (!net::write_frame(stream_, sealed.encode(), timeout_ms_)) {
    return core::make_error("io", "failed to send command");
  }
  const auto frame = net::read_frame(stream_, timeout_ms_);
  if (!frame) return core::make_error("io", "no response frame");
  const auto record = secure::Record::decode(*frame);
  if (!record) return core::make_error("bad_record", "malformed response record");
  auto opened = session_.open(*record, console_aad());
  if (!opened.ok()) return opened.error();
  return std::string(reinterpret_cast<const char*>(opened.value().data()),
                     opened.value().size());
}

bool ConsoleClient::send_raw_frame(std::span<const std::uint8_t> payload) {
  return net::write_frame(stream_, payload, timeout_ms_);
}

// --- http_get_local --------------------------------------------------------

core::Result<std::string> http_get_local(std::uint16_t port, std::string_view target,
                                         int timeout_ms) {
  net::TcpStream stream = net::TcpStream::connect_local(port, timeout_ms);
  if (!stream.valid()) {
    return core::make_error("connect", "cannot reach port " + std::to_string(port));
  }
  std::string request = "GET ";
  request += target;
  request += " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  if (!stream.write_all(request, timeout_ms)) {
    return core::make_error("io", "failed to send request");
  }
  std::string response;
  std::uint8_t chunk[4096];
  for (;;) {
    const long n = stream.read_some(chunk, sizeof(chunk), timeout_ms);
    if (n < 0) return core::make_error("io", "read timeout");
    if (n == 0) break;
    response.append(reinterpret_cast<const char*>(chunk),
                    static_cast<std::size_t>(n));
    if (response.size() > (8u << 20)) {
      return core::make_error("too_large", "response exceeds 8 MiB");
    }
  }
  const std::size_t body_at = response.find("\r\n\r\n");
  if (body_at == std::string::npos || !response.starts_with("HTTP/1.1 ")) {
    return core::make_error("bad_response", "malformed HTTP response");
  }
  if (response.compare(9, 3, "200") != 0) {
    return core::make_error("status", response.substr(9, 3));
  }
  return response.substr(body_at + 4);
}

}  // namespace agrarsec::service
