// Operations console: read-only HTTP plane, authenticated control plane,
// and the contract that an attached console never perturbs per-session
// determinism. The ConsoleParallel suite doubles as the TSan workload for
// the console server threads against concurrent step_all batches
// (scripts/check.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bytes.h"
#include "core/rng.h"
#include "crypto/random.h"
#include "net/stream.h"
#include "pki/identity.h"
#include "pki/trust_store.h"
#include "secure/session.h"
#include "service/console.h"
#include "service/fleet_service.h"

namespace agrarsec::service {
namespace {

/// Same thin-but-full-stack session as the fleet determinism suite.
integration::SecuredWorksiteConfig session_config(std::uint64_t seed) {
  integration::SecuredWorksiteConfig config;
  config.seed = seed;
  config.worksite.forest.trees_per_hectare = 120;
  config.worksite.forest.boulders_per_hectare = 20;
  config.worksite.harvester_output_m3_per_min = 20.0;
  config.worksite.load_time = 10 * core::kSecond;
  return config;
}

struct ConsoleFixture {
  crypto::Drbg drbg{11, "console-test"};
  pki::CertificateAuthority root = pki::CertificateAuthority::create_root(
      "ops-root", make_seed(), 0, 1000 * core::kHour);
  pki::TrustStore trust;
  pki::Identity console_id = make_identity("console-01");
  pki::Identity operator_id = make_identity("operator-01");

  std::array<std::uint8_t, 32> make_seed() { return drbg.generate32(); }

  pki::Identity make_identity(const std::string& name) {
    auto id = pki::enroll(root, drbg, name, pki::CertRole::kOperatorStation, 0,
                          1000 * core::kHour);
    EXPECT_TRUE(id.ok());
    return std::move(id).take();
  }

  ConsoleFixture() { EXPECT_TRUE(trust.add_root(root.certificate()).ok()); }

  /// Fleet with two keyed sessions, stepped a little so flight recorders
  /// and metrics have content.
  static FleetService make_fleet(std::size_t threads = 1) {
    FleetServiceConfig config;
    config.threads = threads;
    config.fleet_seed = 404;
    return FleetService{config};
  }
};

SessionId add_session(FleetService& fleet, std::uint64_t key) {
  const std::uint64_t seed = FleetService::derive_session_seed(404, key);
  return fleet.create_session_keyed(session_config(seed), key);
}

TEST(ConsoleHttp, LiveEndpointsServeFleetSnapshots) {
  ConsoleFixture f;
  FleetService fleet = ConsoleFixture::make_fleet();
  const SessionId a = add_session(fleet, 0);
  add_session(fleet, 1);
  fleet.step_all(5);

  ConsoleService console{fleet, f.console_id, f.trust, 21};
  ASSERT_TRUE(console.start().ok());
  ASSERT_NE(console.http_port(), 0);

  auto metrics = http_get_local(console.http_port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.error().to_string();
  EXPECT_NE(metrics.value().find("fleet.sessions_created"), std::string::npos);
  EXPECT_NE(metrics.value().find("wall."), std::string::npos);

  auto sessions = http_get_local(console.http_port(), "/sessions");
  ASSERT_TRUE(sessions.ok());
  EXPECT_NE(sessions.value().find("\"session_count\":2"), std::string::npos);
  EXPECT_NE(sessions.value().find("\"steps\":5"), std::string::npos);

  auto utilization = http_get_local(console.http_port(), "/utilization");
  ASSERT_TRUE(utilization.ok());
  EXPECT_NE(utilization.value().find("\"shards\":["), std::string::npos);

  auto flight = http_get_local(console.http_port(),
                               "/flight/" + std::to_string(a) + "?n=4");
  ASSERT_TRUE(flight.ok());
  EXPECT_NE(flight.value().find("\"session\":" + std::to_string(a)),
            std::string::npos);
  EXPECT_NE(flight.value().find("\"events\":["), std::string::npos);

  // Unknown session / unknown route are 404s, surfaced as "status" errors.
  EXPECT_EQ(http_get_local(console.http_port(), "/flight/999").error().code,
            "status");
  EXPECT_EQ(http_get_local(console.http_port(), "/nope").error().code, "status");
  console.stop();
  EXPECT_FALSE(console.running());
}

TEST(ConsoleHttp, MutatingVerbsUnreachableOverHttp) {
  ConsoleFixture f;
  FleetService fleet = ConsoleFixture::make_fleet();
  add_session(fleet, 0);
  ConsoleService console{fleet, f.console_id, f.trust, 22};
  ASSERT_TRUE(console.start().ok());

  net::TcpStream conn = net::TcpStream::connect_local(console.http_port());
  ASSERT_TRUE(conn.valid());
  ASSERT_TRUE(conn.write_all(std::string_view{
      "POST /pause HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"}, 2000));
  std::string got;
  std::uint8_t chunk[1024];
  for (;;) {
    const long n = conn.read_some(chunk, sizeof(chunk), 2000);
    if (n <= 0) break;
    got.append(reinterpret_cast<const char*>(chunk), static_cast<std::size_t>(n));
  }
  EXPECT_NE(got.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_FALSE(fleet.paused());
}

TEST(ConsoleControl, AuthenticatedPauseStepResumeRoundTrip) {
  ConsoleFixture f;
  FleetService fleet = ConsoleFixture::make_fleet();
  const SessionId id = add_session(fleet, 0);
  ConsoleService console{fleet, f.console_id, f.trust, 23};
  ASSERT_TRUE(console.start().ok());

  crypto::Drbg client_drbg{31, "operator"};
  auto client = ConsoleClient::connect(console.control_port(), f.operator_id,
                                       f.trust, client_drbg, "console-01");
  ASSERT_TRUE(client.ok()) << client.error().to_string();
  EXPECT_EQ(client.value().peer_subject(), "console-01");

  auto paused = client.value().call("pause");
  ASSERT_TRUE(paused.ok()) << paused.error().to_string();
  EXPECT_NE(paused.value().find("\"paused\":true"), std::string::npos);
  EXPECT_TRUE(fleet.paused());

  // step_all is a no-op while paused; the operator single-step is not.
  fleet.step_all(10);
  EXPECT_EQ(fleet.session_steps(id), 0u);
  auto stepped = client.value().call("step", "{\"steps\":3}");
  ASSERT_TRUE(stepped.ok());
  EXPECT_NE(stepped.value().find("\"sessions_stepped\":1"), std::string::npos);
  EXPECT_EQ(fleet.session_steps(id), 3u);

  auto resumed = client.value().call("resume");
  ASSERT_TRUE(resumed.ok());
  EXPECT_FALSE(fleet.paused());
  fleet.step_all(2);
  EXPECT_EQ(fleet.session_steps(id), 5u);
  EXPECT_EQ(console.control_sessions_established(), 1u);
  EXPECT_GE(console.commands_dispatched(), 3u);
}

TEST(ConsoleControl, InjectAttackAndExport) {
  ConsoleFixture f;
  FleetService fleet = ConsoleFixture::make_fleet();
  const SessionId id = add_session(fleet, 0);
  fleet.step_all(3);
  ConsoleService console{fleet, f.console_id, f.trust, 24};
  ASSERT_TRUE(console.start().ok());

  crypto::Drbg client_drbg{32, "operator"};
  auto client = ConsoleClient::connect(console.control_port(), f.operator_id,
                                       f.trust, client_drbg);
  ASSERT_TRUE(client.ok());

  auto injected = client.value().call(
      "inject-attack",
      "{\"session\":" + std::to_string(id) + ",\"x\":50,\"y\":50,\"level\":2}");
  ASSERT_TRUE(injected.ok());
  EXPECT_NE(injected.value().find("\"injected\":true"), std::string::npos);

  auto exported =
      client.value().call("export", "{\"session\":" + std::to_string(id) + "}");
  ASSERT_TRUE(exported.ok());
  const std::string expected = fleet.session_deterministic_json(id);
  const std::string prefix = "{\"id\":2,\"result\":";
  ASSERT_EQ(exported.value().substr(0, prefix.size()), prefix);
  EXPECT_EQ(exported.value().substr(prefix.size(),
                                    exported.value().size() - prefix.size() - 1),
            expected);

  auto unknown = client.value().call("export", "{\"session\":999}");
  ASSERT_TRUE(unknown.ok());
  EXPECT_NE(unknown.value().find("unknown_session"), std::string::npos);
}

TEST(ConsoleControl, MalformedRecordTortureNeverCrashesOrMutates) {
  ConsoleFixture f;
  FleetService fleet = ConsoleFixture::make_fleet();
  const SessionId id = add_session(fleet, 0);
  fleet.step_all(4);
  ConsoleService console{fleet, f.console_id, f.trust, 25};
  ASSERT_TRUE(console.start().ok());

  crypto::Drbg client_drbg{33, "operator"};
  auto client = ConsoleClient::connect(console.control_port(), f.operator_id,
                                       f.trust, client_drbg);
  ASSERT_TRUE(client.ok());

  const std::string before_sessions = fleet.sessions_json();
  const std::string before_export = fleet.session_deterministic_json(id);
  const bool before_paused = fleet.paused();

  // Torture loop: garbage frames, truncated records, and well-formed
  // records with forged ciphertext (a plausible sealed "pause" that fails
  // authentication). None may crash the server, mutate fleet state, or
  // desynchronize the session for the genuine command that follows.
  crypto::Drbg fuzz{34, "fuzz"};
  for (int i = 0; i < 64; ++i) {
    core::Bytes frame;
    switch (i % 4) {
      case 0:  // raw garbage, not even record-shaped
        frame = fuzz.generate(1 + (i * 7) % 96);
        break;
      case 1: {  // record-shaped, forged ciphertext under a fresh sequence
        secure::Record forged;
        forged.sequence = 1000 + static_cast<std::uint64_t>(i);
        forged.ciphertext = fuzz.generate(48);
        frame = forged.encode();
        break;
      }
      case 2: {  // record-shaped, duplicate sequence 0, forged payload
        secure::Record forged;
        forged.sequence = 0;
        forged.ciphertext = fuzz.generate(40);
        frame = forged.encode();
        break;
      }
      default:  // empty frame
        break;
    }
    ASSERT_TRUE(client.value().send_raw_frame(frame));
  }

  // The authenticated channel still works after the storm...
  auto pong = client.value().call("ping");
  ASSERT_TRUE(pong.ok()) << pong.error().to_string();
  EXPECT_NE(pong.value().find("\"pong\":true"), std::string::npos);
  EXPECT_GE(console.records_rejected(), 64u);

  // ...and nothing about the fleet changed.
  EXPECT_EQ(fleet.sessions_json(), before_sessions);
  EXPECT_EQ(fleet.session_deterministic_json(id), before_export);
  EXPECT_EQ(fleet.paused(), before_paused);
  EXPECT_EQ(console.commands_dispatched(), 1u);  // only the ping
}

TEST(ConsoleControl, UnauthorizedSubjectDropped) {
  ConsoleFixture f;
  FleetService fleet = ConsoleFixture::make_fleet();
  add_session(fleet, 0);
  ConsoleConfig config;
  config.allowed_subjects = {"operator-99"};  // not our operator
  config.io_timeout_ms = 500;                 // keep the failing call quick
  ConsoleService console{fleet, f.console_id, f.trust, 26, config};
  ASSERT_TRUE(console.start().ok());

  crypto::Drbg client_drbg{35, "operator"};
  auto client = ConsoleClient::connect(console.control_port(), f.operator_id,
                                       f.trust, client_drbg);
  // The handshake itself succeeds (the cert is trusted), but the console
  // closes before serving: the first call gets no response.
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE(client.value().call("pause").ok());
  EXPECT_FALSE(fleet.paused());
  EXPECT_EQ(console.control_sessions_established(), 0u);
}

TEST(ConsoleControl, ClientRejectsWrongConsoleSubject) {
  ConsoleFixture f;
  FleetService fleet = ConsoleFixture::make_fleet();
  ConsoleService console{fleet, f.console_id, f.trust, 27};
  ASSERT_TRUE(console.start().ok());

  crypto::Drbg client_drbg{36, "operator"};
  auto client = ConsoleClient::connect(console.control_port(), f.operator_id,
                                       f.trust, client_drbg, "console-impostor");
  EXPECT_FALSE(client.ok());
}

TEST(ConsoleControl, DeeplyNestedRequestGetsParseErrorAndChannelSurvives) {
  ConsoleFixture f;
  FleetService fleet = ConsoleFixture::make_fleet();
  ConsoleService console{fleet, f.console_id, f.trust, 28};
  ASSERT_TRUE(console.start().ok());

  crypto::Drbg client_drbg{37, "operator"};
  auto client = ConsoleClient::connect(console.control_port(), f.operator_id,
                                       f.trust, client_drbg);
  ASSERT_TRUE(client.ok());

  // ~100 KB, well inside the 1 MiB frame limit: an unbounded recursive
  // parser overflows the control thread's stack on it.
  auto nested = client.value().call_raw(std::string(100000, '['));
  ASSERT_TRUE(nested.ok()) << nested.error().to_string();
  EXPECT_NE(nested.value().find("\"code\":\"parse_error\""), std::string::npos)
      << nested.value();

  // Same control connection, next request: still served.
  auto pong = client.value().call("ping");
  ASSERT_TRUE(pong.ok()) << pong.error().to_string();
  EXPECT_NE(pong.value().find("\"pong\":true"), std::string::npos);
}

TEST(ConsoleControl, NonIntegralOrOutOfRangeIntegersRefused) {
  ConsoleFixture f;
  FleetService fleet = ConsoleFixture::make_fleet();
  const SessionId id = add_session(fleet, 0);
  ConsoleService console{fleet, f.console_id, f.trust, 29};
  ASSERT_TRUE(console.start().ok());

  crypto::Drbg client_drbg{38, "operator"};
  auto client = ConsoleClient::connect(console.control_port(), f.operator_id,
                                       f.trust, client_drbg);
  ASSERT_TRUE(client.ok());

  // Each request carries an id, session, level or steps that is not an
  // integral number in range: converting it unchecked would be undefined
  // behaviour or a silent truncation.
  const auto attack = [](const std::string& id, const std::string& params) {
    return R"({"id":)" + id + R"(,"method":"inject-attack","params":{"x":50,"y":50,)" +
           params + "}}";
  };
  const std::string session = "\"session\":" + std::to_string(id);
  const std::vector<std::pair<std::string, std::string>> refused = {
      {attack("-1", session), "bad_request"},
      {attack("1e300", session), "bad_request"},
      {R"({"id":1.5,"method":"ping"})", "bad_request"},
      {attack("7", R"("session":1e300)"), "bad_param"},
      {attack("7", R"("session":-1)"), "bad_param"},
      {attack("7", R"("session":0.5)"), "bad_param"},
      {attack("7", session + R"(,"level":1e10)"), "bad_param"},
      {attack("7", session + R"(,"level":2.5)"), "bad_param"},
      {R"({"id":7,"method":"export","params":{"session":1e300}})", "bad_param"},
      {R"({"id":7,"method":"step","params":{"steps":2.5}})", "bad_param"},
  };
  for (const auto& [request, code] : refused) {
    auto reply = client.value().call_raw(request);
    ASSERT_TRUE(reply.ok()) << reply.error().to_string();
    EXPECT_NE(reply.value().find("\"code\":\"" + code + "\""), std::string::npos)
        << request << " -> " << reply.value();
    // A malformed id is answered under id 0; a bad param keeps the id.
    const char* id_prefix = code == "bad_request" ? "{\"id\":0," : "{\"id\":7,";
    EXPECT_TRUE(reply.value().starts_with(id_prefix)) << reply.value();
  }

  bool injected = false;
  fleet.telemetry().recorder().for_each([&injected](const obs::FlightEvent& e) {
    injected = injected || e.code == "attack-injected";
  });
  EXPECT_FALSE(injected);
  EXPECT_EQ(fleet.session_steps(id), 0u);

  // The same request with in-range integers goes through.
  auto ok = client.value().call_raw(attack("7", session + R"(,"level":2)"));
  ASSERT_TRUE(ok.ok()) << ok.error().to_string();
  EXPECT_EQ(ok.value(), R"({"id":7,"result":{"injected":true}})");
}

// --- streaming plane --------------------------------------------------------

/// Extracts "next_cursor":N from a console flight JSON body.
std::uint64_t parse_next_cursor(const std::string& json) {
  const std::size_t at = json.find("\"next_cursor\":");
  EXPECT_NE(at, std::string::npos) << json;
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + 14, nullptr, 10);
}

TEST(ConsoleHttp, FlightCursorPollsDoNotOverlap) {
  ConsoleFixture f;
  FleetService fleet = ConsoleFixture::make_fleet();
  const SessionId a = add_session(fleet, 0);
  fleet.step_all(5);

  ConsoleService console{fleet, f.console_id, f.trust, 41};
  ASSERT_TRUE(console.start().ok());
  const std::string base = "/flight/" + std::to_string(a);

  // First sequenced poll drains everything recorded so far.
  auto first = http_get_local(console.http_port(), base + "?cursor=0&n=100000");
  ASSERT_TRUE(first.ok());
  const std::uint64_t cursor = parse_next_cursor(first.value());
  const std::uint64_t total =
      fleet.session(a)->telemetry().recorder().total_recorded();
  EXPECT_EQ(cursor, total);

  // Caught up: the same cursor back and an empty event list — a repeated
  // poll never re-serves the tail it already delivered.
  auto empty = http_get_local(console.http_port(),
                              base + "?cursor=" + std::to_string(cursor));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(parse_next_cursor(empty.value()), cursor);
  EXPECT_NE(empty.value().find("\"events\":[]"), std::string::npos);

  // New events, resumed poll: only fresh ones, starting exactly at the
  // cursor — no overlap with the previous chunk. (Recorded directly: step
  // count and flight-event count are deliberately not 1:1.)
  fleet.session(a)->telemetry().recorder().record(9000, "test", "cursor-probe");
  fleet.session(a)->telemetry().recorder().record(9001, "test", "cursor-probe");
  auto next = http_get_local(console.http_port(),
                             base + "?cursor=" + std::to_string(cursor) + "&n=100000");
  ASSERT_TRUE(next.ok());
  EXPECT_NE(next.value().find("\"seq\":" + std::to_string(cursor) + ","),
            std::string::npos);
  EXPECT_EQ(next.value().find("\"seq\":" + std::to_string(cursor - 1) + ","),
            std::string::npos);
  EXPECT_EQ(parse_next_cursor(next.value()),
            fleet.session(a)->telemetry().recorder().total_recorded());

  // Cursorless polls keep the legacy tail semantics (overlap allowed) and
  // now carry the resume cursor too.
  auto tail = http_get_local(console.http_port(), base + "?n=4");
  ASSERT_TRUE(tail.ok());
  EXPECT_NE(tail.value().find("\"next_cursor\":"), std::string::npos);
  // Tail and cursor polls share one response shape.
  EXPECT_NE(tail.value().find("\"dropped\":0"), std::string::npos);
  console.stop();
}

/// Reads the raw SSE byte stream until `want_payload_bytes` of flight
/// data lines have been reassembled; returns the reassembled JSONL.
/// Fails the test on stall, stream error, or any "dropped" frame.
std::string collect_sse_flight(net::TcpStream& conn, std::size_t want_payload_bytes) {
  std::string raw;
  std::string payload;
  std::size_t scanned = 0;  // frames before this offset are consumed
  bool headers_done = false;
  std::uint8_t chunk[4096];
  while (payload.size() < want_payload_bytes) {
    const long n = conn.read_some(chunk, sizeof(chunk), 5000);
    EXPECT_GT(n, 0) << "SSE stream stalled at " << payload.size() << "/"
                    << want_payload_bytes << " bytes";
    if (n <= 0) break;
    raw.append(reinterpret_cast<const char*>(chunk), static_cast<std::size_t>(n));
    if (!headers_done) {
      const std::size_t end = raw.find("\r\n\r\n");
      if (end == std::string::npos) continue;
      EXPECT_NE(raw.find("Content-Type: text/event-stream"), std::string::npos);
      scanned = end + 4;
      headers_done = true;
    }
    for (;;) {  // consume complete frames (blank-line terminated)
      const std::size_t frame_end = raw.find("\n\n", scanned);
      if (frame_end == std::string::npos) break;
      const std::string_view frame =
          std::string_view{raw}.substr(scanned, frame_end - scanned);
      scanned = frame_end + 2;
      EXPECT_EQ(frame.find("event: dropped"), std::string_view::npos)
          << "subscriber lagged past the ring";
      const std::size_t data_at = frame.find("data: ");
      if (data_at == std::string_view::npos) continue;
      payload.append(frame.substr(data_at + 6));
      payload.push_back('\n');
    }
  }
  return payload;
}

/// The acceptance gate of the streaming plane: under a stepping fleet at
/// `threads` shards with concurrent console traffic on both planes, the
/// SSE-streamed flight events reassemble to the exact bytes of the polled
/// JSONL export.
void expect_sse_matches_polled_export(std::size_t threads,
                                      const ConsoleFixture& f,
                                      std::uint64_t drbg_seed) {
  FleetServiceConfig config;
  config.threads = threads;
  config.fleet_seed = 404;
  FleetService fleet{config};
  const SessionId a = add_session(fleet, 0);
  add_session(fleet, 1);

  ConsoleService console{fleet, f.console_id, f.trust, drbg_seed};
  ASSERT_TRUE(console.start().ok());

  // Subscribe before any stepping so cursor 0 sees every event live.
  net::TcpStream sub = net::TcpStream::connect_local(console.http_port());
  ASSERT_TRUE(sub.valid());
  ASSERT_TRUE(sub.write_all(std::string_view{
      "GET /stream/flight/" + std::to_string(a) +
      "?cursor=0 HTTP/1.1\r\nHost: x\r\n\r\n"}, 2000));

  // Concurrent console traffic on both planes while the fleet steps.
  std::atomic<bool> done{false};
  std::thread poller{[&] {
    crypto::Drbg client_drbg{drbg_seed + 1, "poller"};
    auto client = ConsoleClient::connect(console.control_port(), f.operator_id,
                                         f.trust, client_drbg);
    EXPECT_TRUE(client.ok());
    while (!done.load(std::memory_order_relaxed)) {
      EXPECT_TRUE(http_get_local(console.http_port(), "/sessions").ok());
      EXPECT_TRUE(http_get_local(console.http_port(), "/ids").ok());
      if (client.ok()) EXPECT_TRUE(client.value().call("ping").ok());
    }
  }};
  for (int step = 0; step < 30; ++step) fleet.step_all(1);
  done.store(true, std::memory_order_relaxed);
  poller.join();

  const std::string expected =
      fleet.session(a)->telemetry().recorder().to_jsonl();
  ASSERT_FALSE(expected.empty());
  const std::string streamed = collect_sse_flight(sub, expected.size());
  EXPECT_EQ(streamed, expected)
      << "streamed flight payload diverged from the polled export at threads="
      << threads;
  console.stop();
}

TEST(ConsoleStream, SseFlightPayloadMatchesPolledExportAcrossThreadCounts) {
  ConsoleFixture f;
  std::uint64_t drbg_seed = 200;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    expect_sse_matches_polled_export(threads, f, drbg_seed);
    drbg_seed += 10;
  }
}

TEST(ConsoleStream, MetricsStreamPushesSessionsAndIdsFrames) {
  ConsoleFixture f;
  FleetService fleet = ConsoleFixture::make_fleet();
  add_session(fleet, 0);
  fleet.step_all(2);
  ConsoleService console{fleet, f.console_id, f.trust, 42};
  ASSERT_TRUE(console.start().ok());

  net::TcpStream sub = net::TcpStream::connect_local(console.http_port());
  ASSERT_TRUE(sub.valid());
  ASSERT_TRUE(sub.write_all(std::string_view{
      "GET /stream/metrics HTTP/1.1\r\nHost: x\r\n\r\n"}, 2000));
  std::string got;
  std::uint8_t chunk[4096];
  while (got.find("event: sessions") == std::string::npos ||
         got.find("event: ids") == std::string::npos) {
    const long n = sub.read_some(chunk, sizeof(chunk), 2000);
    ASSERT_GT(n, 0) << "metrics stream stalled";
    got.append(reinterpret_cast<const char*>(chunk), static_cast<std::size_t>(n));
  }
  EXPECT_NE(got.find("\"session_count\":1"), std::string::npos);
  EXPECT_NE(got.find("\"sensor\":{\"alerts_total\":"), std::string::npos);
  console.stop();
}

// --- control-session rotation ----------------------------------------------

TEST(ConsoleControl, RotationForcesRehandshakeAfterNCommands) {
  ConsoleFixture f;
  FleetService fleet = ConsoleFixture::make_fleet();
  add_session(fleet, 0);
  ConsoleConfig config;
  config.rotate_after_commands = 3;
  config.io_timeout_ms = 500;  // keep the post-rotation failing call quick
  ConsoleService console{fleet, f.console_id, f.trust, 43, config};
  ASSERT_TRUE(console.start().ok());

  crypto::Drbg client_drbg{51, "operator"};
  auto client = ConsoleClient::connect(console.control_port(), f.operator_id,
                                       f.trust, client_drbg);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 3; ++i) {
    auto pong = client.value().call("ping");
    ASSERT_TRUE(pong.ok()) << "command " << i << ": " << pong.error().to_string();
  }
  // The 3rd response was the last on this session: the console rotated.
  EXPECT_FALSE(client.value().call("ping").ok());
  EXPECT_EQ(console.control_rotations(), 1u);

  // A re-handshake gets a fresh session and works immediately.
  auto again = ConsoleClient::connect(console.control_port(), f.operator_id,
                                      f.trust, client_drbg);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().call("ping").ok());
  EXPECT_EQ(console.control_sessions_established(), 2u);
}

// --- control plane as IDS sensor -------------------------------------------

TEST(ConsoleSensor, ScriptedControlPlaneAttackRaisesAlerts) {
  ConsoleFixture f;
  FleetService fleet = ConsoleFixture::make_fleet();
  add_session(fleet, 0);
  ConsoleConfig config;
  config.io_timeout_ms = 500;
  config.sensor.control_bruteforce_threshold = 3;
  config.sensor.control_replay_threshold = 4;
  config.sensor.control_flood_threshold = 5;
  ConsoleService console{fleet, f.console_id, f.trust, 44, config};
  ASSERT_TRUE(console.start().ok());

  // Phase 1 — handshake bruteforce: garbage first flights, each one a
  // failed handshake. The close (EOF on our side) sequences us with the
  // server's sensor update.
  for (int i = 0; i < 3; ++i) {
    net::TcpStream probe = net::TcpStream::connect_local(console.control_port());
    ASSERT_TRUE(probe.valid());
    const core::Bytes garbage = core::from_string("not a handshake");
    ASSERT_TRUE(net::write_frame(probe, garbage, 500));
    std::uint8_t sink[64];
    while (probe.read_some(sink, sizeof(sink), 500) > 0) {
    }
  }
  EXPECT_EQ(console.sensor_alert_count("control-bruteforce"), 1u);

  // Phase 2 — replay burst: an authenticated session spraying rejects.
  crypto::Drbg client_drbg{52, "operator"};
  auto client = ConsoleClient::connect(console.control_port(), f.operator_id,
                                       f.trust, client_drbg);
  ASSERT_TRUE(client.ok());
  crypto::Drbg fuzz{53, "fuzz"};
  for (int i = 0; i < 4; ++i) {
    secure::Record forged;
    forged.sequence = 2000 + static_cast<std::uint64_t>(i);
    forged.ciphertext = fuzz.generate(48);
    ASSERT_TRUE(client.value().send_raw_frame(forged.encode()));
  }
  // A genuine ping syncs with the server loop (all rejects processed).
  ASSERT_TRUE(client.value().call("ping").ok());
  EXPECT_EQ(console.sensor_alert_count("control-replay-burst"), 1u);

  // Phase 3 — command flood: hammer dispatches past the rate threshold.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.value().call("ping").ok());
  }
  EXPECT_GE(console.sensor_alert_count("control-flood"), 1u);
  EXPECT_GE(console.sensor_total_alerts(), 3u);

  // The /ids endpoint serves the same picture to observers.
  auto ids = http_get_local(console.http_port(), "/ids");
  ASSERT_TRUE(ids.ok());
  EXPECT_NE(ids.value().find("\"control-bruteforce\":1"), std::string::npos);
  EXPECT_NE(ids.value().find("\"control-replay-burst\":1"), std::string::npos);
  EXPECT_NE(ids.value().find("\"rotations\":0"), std::string::npos);
}

// --- determinism + TSan workload -------------------------------------------

std::map<std::uint64_t, std::string> run_with_console(std::size_t threads,
                                                      const ConsoleFixture& f,
                                                      std::uint64_t drbg_seed) {
  FleetServiceConfig config;
  config.threads = threads;
  config.fleet_seed = 404;
  FleetService fleet{config};
  std::map<std::uint64_t, SessionId> ids;
  for (std::uint64_t key = 0; key < 4; ++key) ids[key] = add_session(fleet, key);

  ConsoleService console{fleet, f.console_id, f.trust, drbg_seed};
  EXPECT_TRUE(console.start().ok());

  // Console clients hammer both planes while the driver steps: HTTP
  // snapshots and authenticated pings race against step_all batches, and
  // TSan checks the interleavings. Nothing here mutates sim input, so the
  // exports must stay bit-identical to a console-less serial run.
  std::atomic<bool> done{false};
  std::thread poller{[&] {
    crypto::Drbg client_drbg{drbg_seed + 1, "poller"};
    auto client = ConsoleClient::connect(console.control_port(), f.operator_id,
                                         f.trust, client_drbg);
    EXPECT_TRUE(client.ok());
    while (!done.load(std::memory_order_relaxed)) {
      EXPECT_TRUE(http_get_local(console.http_port(), "/metrics").ok());
      EXPECT_TRUE(http_get_local(console.http_port(), "/sessions").ok());
      if (client.ok()) EXPECT_TRUE(client.value().call("ping").ok());
    }
  }};
  for (int step = 0; step < 30; ++step) fleet.step_all(1);
  done.store(true, std::memory_order_relaxed);
  poller.join();
  console.stop();

  std::map<std::uint64_t, std::string> exports;
  for (const auto& [key, id] : ids) exports[key] = fleet.session_deterministic_json(id);
  return exports;
}

TEST(ConsoleParallel, ExportsBitIdenticalWithConsoleAttached) {
  ConsoleFixture f;

  // Reference: no console, serial service.
  std::map<std::uint64_t, std::string> reference;
  {
    FleetServiceConfig config;
    config.fleet_seed = 404;
    FleetService fleet{config};
    std::map<std::uint64_t, SessionId> ids;
    for (std::uint64_t key = 0; key < 4; ++key) ids[key] = add_session(fleet, key);
    fleet.step_all(30);
    for (const auto& [key, id] : ids) {
      reference[key] = fleet.session_deterministic_json(id);
    }
  }
  ASSERT_EQ(reference.size(), 4u);

  std::uint64_t drbg_seed = 100;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto exports = run_with_console(threads, f, drbg_seed);
    drbg_seed += 10;
    ASSERT_EQ(exports.size(), reference.size());
    for (const auto& [key, json] : exports) {
      EXPECT_EQ(json, reference.at(key))
          << "session key " << key << " diverged at threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace agrarsec::service
