// Embedded HTTP server: strict parser limits, pipelining, and the
// transport loop the operations console rides on. The parser tests are
// pure (no sockets); the server tests run a real loopback listener on an
// ephemeral port.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/http.h"
#include "net/stream.h"

namespace agrarsec::net {
namespace {

using Status = HttpRequestParser::Status;

HttpRequest parse_one(HttpRequestParser& parser, std::string_view bytes) {
  parser.append(bytes);
  HttpRequest request;
  EXPECT_EQ(parser.poll(request), Status::kComplete);
  return request;
}

TEST(HttpParser, ParsesSimpleGet) {
  HttpRequestParser parser;
  const HttpRequest r = parse_one(
      parser,
      "GET /flight/3?n=16&fmt=json HTTP/1.1\r\n"
      "Host: 127.0.0.1\r\n"
      "Accept: application/json\r\n\r\n");
  EXPECT_EQ(r.method, "GET");
  EXPECT_EQ(r.target, "/flight/3?n=16&fmt=json");
  EXPECT_EQ(r.version, "HTTP/1.1");
  EXPECT_EQ(r.path(), "/flight/3");
  EXPECT_EQ(r.query_param("n"), "16");
  EXPECT_EQ(r.query_param("fmt"), "json");
  EXPECT_EQ(r.query_param("absent"), "");
  EXPECT_EQ(r.header("host"), "127.0.0.1");  // case-insensitive
  EXPECT_EQ(r.header("ACCEPT"), "application/json");
  EXPECT_TRUE(r.body.empty());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(HttpParser, TruncatedRequestLineNeedsMoreThenCompletes) {
  HttpRequestParser parser;
  HttpRequest request;
  parser.append("GET /met");
  EXPECT_EQ(parser.poll(request), Status::kNeedMore);
  parser.append("rics HTTP/1.1\r\nHo");
  EXPECT_EQ(parser.poll(request), Status::kNeedMore);
  parser.append("st: x\r\n\r\n");
  EXPECT_EQ(parser.poll(request), Status::kComplete);
  EXPECT_EQ(request.target, "/metrics");
}

TEST(HttpParser, OversizedRequestLineRejectedEvenWithoutTerminator) {
  HttpRequestParser parser;
  HttpRequest request;
  // No CRLF yet, but the line already exceeds the limit: a peer cannot
  // force unbounded buffering by never terminating the request line.
  parser.append("GET /" + std::string(kMaxRequestLine, 'a'));
  EXPECT_EQ(parser.poll(request), Status::kError);
  EXPECT_EQ(parser.error_status(), 414);
}

TEST(HttpParser, TooManyHeadersRejected) {
  HttpLimits limits;
  limits.max_header_count = 4;
  HttpRequestParser parser{limits};
  std::string raw = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 5; ++i) {
    raw += "X-H" + std::to_string(i) + ": v\r\n";
  }
  raw += "\r\n";
  parser.append(raw);
  HttpRequest request;
  EXPECT_EQ(parser.poll(request), Status::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, OversizedHeaderBlockRejectedBeforeTerminator) {
  HttpLimits limits;
  limits.max_header_bytes = 64;
  HttpRequestParser parser{limits};
  HttpRequest request;
  parser.append("GET / HTTP/1.1\r\nX-Pad: " + std::string(128, 'p'));
  EXPECT_EQ(parser.poll(request), Status::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, UnknownMethodRejectedWith405) {
  HttpRequestParser parser;
  HttpRequest request;
  parser.append("DELETE /sessions HTTP/1.1\r\n\r\n");
  EXPECT_EQ(parser.poll(request), Status::kError);
  EXPECT_EQ(parser.error_status(), 405);
}

TEST(HttpParser, NonTokenMethodRejectedWith400) {
  HttpRequestParser parser;
  HttpRequest request;
  parser.append("G@T / HTTP/1.1\r\n\r\n");
  EXPECT_EQ(parser.poll(request), Status::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParser, BadVersionAndAbsoluteFormRejected) {
  {
    HttpRequestParser parser;
    HttpRequest request;
    parser.append("GET / HTTP/2.0\r\n\r\n");
    EXPECT_EQ(parser.poll(request), Status::kError);
    EXPECT_EQ(parser.error_status(), 400);
  }
  {
    HttpRequestParser parser;
    HttpRequest request;
    parser.append("GET http://evil/ HTTP/1.1\r\n\r\n");
    EXPECT_EQ(parser.poll(request), Status::kError);
    EXPECT_EQ(parser.error_status(), 400);
  }
}

TEST(HttpParser, TransferEncodingRejectedWith501) {
  HttpRequestParser parser;
  HttpRequest request;
  parser.append("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_EQ(parser.poll(request), Status::kError);
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(HttpParser, BodyViaContentLength) {
  HttpRequestParser parser;
  HttpRequest request;
  parser.append("POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel");
  EXPECT_EQ(parser.poll(request), Status::kNeedMore);  // body incomplete
  parser.append("lo");
  EXPECT_EQ(parser.poll(request), Status::kComplete);
  EXPECT_EQ(request.body, "hello");
}

TEST(HttpParser, OversizedBodyRejectedWith413) {
  HttpLimits limits;
  limits.max_body_bytes = 16;
  HttpRequestParser parser{limits};
  HttpRequest request;
  parser.append("POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
  EXPECT_EQ(parser.poll(request), Status::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParser, PipelinedRequestsConsumedOneAtATime) {
  HttpRequestParser parser;
  parser.append(
      "GET /first HTTP/1.1\r\n\r\n"
      "GET /second HTTP/1.1\r\n\r\n");
  HttpRequest request;
  ASSERT_EQ(parser.poll(request), Status::kComplete);
  EXPECT_EQ(request.target, "/first");
  EXPECT_GT(parser.buffered(), 0u);  // second request still queued
  ASSERT_EQ(parser.poll(request), Status::kComplete);
  EXPECT_EQ(request.target, "/second");
  EXPECT_EQ(parser.poll(request), Status::kNeedMore);
}

TEST(HttpResponseTest, SerializeCarriesLengthAndConnection) {
  HttpResponse ok = HttpResponse::json("{\"a\":1}");
  const std::string wire = ok.serialize();
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 7\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive"), std::string::npos);

  const HttpResponse err = HttpResponse::error(404, "not_found", "nope");
  EXPECT_TRUE(err.close_connection);
  EXPECT_NE(err.serialize().find("Connection: close"), std::string::npos);
}

TEST(HttpResponseTest, ErrorBodyEscapesControlBytesInsteadOfDroppingThem) {
  EXPECT_EQ(HttpResponse::error(400, "bad", "a\tb\x01").body,
            "{\"error\":\"bad\",\"message\":\"a\\tb\\u0001\"}");
}

// --- server over a real loopback socket ------------------------------------

/// Reads until the peer closes or `timeout_ms` passes; returns all bytes.
std::string drain(TcpStream& stream, int timeout_ms = 2000) {
  std::string out;
  std::uint8_t chunk[1024];
  for (;;) {
    const long n = stream.read_some(chunk, sizeof(chunk), timeout_ms);
    if (n <= 0) break;
    out.append(reinterpret_cast<const char*>(chunk), static_cast<std::size_t>(n));
  }
  return out;
}

TEST(HttpServerTest, ServesPipelinedKeepAliveRequests) {
  HttpServer server;
  ASSERT_TRUE(server.start([](const HttpRequest& request) {
    return HttpResponse::json("{\"path\":\"" + std::string(request.path()) + "\"}");
  }).ok());
  ASSERT_NE(server.port(), 0);

  TcpStream conn = TcpStream::connect_local(server.port());
  ASSERT_TRUE(conn.valid());
  ASSERT_TRUE(conn.write_all(std::string_view{
      "GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /b HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"}, 2000));
  // The second response closes the connection (HTTP/1.1 keep-alive by
  // default; the server loop exits when a handler response says close) —
  // except our handler never sets close, so rely on drain timeout being
  // bounded by reading both bodies explicitly.
  std::string got;
  std::uint8_t chunk[1024];
  while (got.find("{\"path\":\"/b\"}") == std::string::npos) {
    const long n = conn.read_some(chunk, sizeof(chunk), 2000);
    ASSERT_GT(n, 0) << "server stalled before both responses arrived";
    got.append(reinterpret_cast<const char*>(chunk), static_cast<std::size_t>(n));
  }
  EXPECT_NE(got.find("{\"path\":\"/a\"}"), std::string::npos);
  EXPECT_EQ(server.requests_served(), 2u);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServerTest, AnswersMalformedRequestWithErrorAndCloses) {
  HttpServer server;
  ASSERT_TRUE(server.start([](const HttpRequest&) {
    return HttpResponse::json("{}");
  }).ok());

  TcpStream conn = TcpStream::connect_local(server.port());
  ASSERT_TRUE(conn.valid());
  ASSERT_TRUE(conn.write_all(std::string_view{"PATCH / HTTP/1.1\r\n\r\n"}, 2000));
  const std::string got = drain(conn);
  EXPECT_NE(got.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_EQ(server.protocol_errors(), 1u);
  server.stop();
}

// --- connection-torture suite: the concurrent poll loop under abuse --------

TEST(HttpServerTorture, ManyKeepAliveClientsServedConcurrently) {
  HttpServer server;
  ASSERT_TRUE(server.start([](const HttpRequest& request) {
    return HttpResponse::json("{\"path\":\"" + std::string(request.path()) + "\"}");
  }).ok());

  constexpr int kClients = 8;
  std::vector<TcpStream> conns;
  conns.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    conns.push_back(TcpStream::connect_local(server.port()));
    ASSERT_TRUE(conns.back().valid());
  }
  // Two keep-alive rounds: every client writes before anyone reads, so a
  // serial-accept server would wedge here. Responses must arrive on all
  // connections without any of them closing.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kClients; ++i) {
      const std::string target = "/c" + std::to_string(i) + "r" + std::to_string(round);
      ASSERT_TRUE(conns[static_cast<std::size_t>(i)].write_all(
          std::string_view{"GET " + target + " HTTP/1.1\r\nHost: x\r\n\r\n"}, 2000));
    }
    for (int i = 0; i < kClients; ++i) {
      const std::string want =
          "{\"path\":\"/c" + std::to_string(i) + "r" + std::to_string(round) + "\"}";
      std::string got;
      std::uint8_t chunk[1024];
      while (got.find(want) == std::string::npos) {
        const long n = conns[static_cast<std::size_t>(i)].read_some(chunk, sizeof(chunk), 2000);
        ASSERT_GT(n, 0) << "client " << i << " round " << round << " stalled";
        got.append(reinterpret_cast<const char*>(chunk), static_cast<std::size_t>(n));
      }
    }
  }
  EXPECT_EQ(server.connections_accepted(), static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(server.requests_served(), static_cast<std::uint64_t>(kClients * 2));
  server.stop();
}

TEST(HttpServerTorture, SlowLorisDoesNotBlockOthersAndGets408) {
  HttpServerConfig config;
  config.io_timeout_ms = 300;
  HttpServer server{config};
  ASSERT_TRUE(server.start([](const HttpRequest&) {
    return HttpResponse::json("{\"ok\":true}");
  }).ok());

  // The loris trickles a request that never completes...
  TcpStream loris = TcpStream::connect_local(server.port());
  ASSERT_TRUE(loris.valid());
  ASSERT_TRUE(loris.write_all(std::string_view{"GET /metr"}, 2000));

  // ...while a well-behaved client on another connection is served at
  // once — the partial request holds only its own connection hostage.
  TcpStream good = TcpStream::connect_local(server.port());
  ASSERT_TRUE(good.valid());
  ASSERT_TRUE(good.write_all(std::string_view{
      "GET /sessions HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"}, 2000));
  EXPECT_NE(drain(good).find("{\"ok\":true}"), std::string::npos);

  // Past the idle deadline the loris is answered 408 and cut.
  const std::string verdict = drain(loris, 3000);
  EXPECT_NE(verdict.find("HTTP/1.1 408"), std::string::npos);
  server.stop();
}

TEST(HttpServerTorture, OverLimitConnectionRejectedWithDeterministic503) {
  HttpServerConfig config;
  config.max_connections = 2;
  HttpServer server{config};
  ASSERT_TRUE(server.start([](const HttpRequest&) {
    return HttpResponse::json("{}");
  }).ok());

  TcpStream first = TcpStream::connect_local(server.port());
  TcpStream second = TcpStream::connect_local(server.port());
  ASSERT_TRUE(first.valid());
  ASSERT_TRUE(second.valid());
  // Round-trip a request on both so they are registered in the poll set
  // before the over-limit connection arrives.
  for (TcpStream* conn : {&first, &second}) {
    ASSERT_TRUE(conn->write_all(std::string_view{"GET / HTTP/1.1\r\nHost: x\r\n\r\n"}, 2000));
    std::string got;
    std::uint8_t chunk[256];
    while (got.find("{}") == std::string::npos) {
      const long n = conn->read_some(chunk, sizeof(chunk), 2000);
      ASSERT_GT(n, 0);
      got.append(reinterpret_cast<const char*>(chunk), static_cast<std::size_t>(n));
    }
  }

  TcpStream third = TcpStream::connect_local(server.port());
  ASSERT_TRUE(third.valid());
  const std::string got = drain(third);
  EXPECT_NE(got.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(got.find("Connection: close"), std::string::npos);
  EXPECT_EQ(server.connections_rejected(), 1u);

  // The two in-limit connections are still live keep-alive connections.
  ASSERT_TRUE(first.write_all(std::string_view{"GET /again HTTP/1.1\r\nHost: x\r\n\r\n"}, 2000));
  std::string again;
  std::uint8_t chunk[256];
  while (again.find("{}") == std::string::npos) {
    const long n = first.read_some(chunk, sizeof(chunk), 2000);
    ASSERT_GT(n, 0);
    again.append(reinterpret_cast<const char*>(chunk), static_cast<std::size_t>(n));
  }
  server.stop();
}

TEST(HttpServerTorture, SseStreamSurvivesMidStreamClientDisconnect) {
  HttpServer server;
  ASSERT_TRUE(server.start([](const HttpRequest& request) {
    if (request.path() == "/stream") {
      auto counter = std::make_shared<int>(0);
      return HttpResponse::event_stream([counter](std::string& out) {
        out += "data: tick " + std::to_string((*counter)++) + "\n\n";
        return true;  // stream forever; only the client ends it
      });
    }
    return HttpResponse::json("{\"plain\":true}");
  }).ok());

  TcpStream sub = TcpStream::connect_local(server.port());
  ASSERT_TRUE(sub.valid());
  ASSERT_TRUE(sub.write_all(std::string_view{"GET /stream HTTP/1.1\r\nHost: x\r\n\r\n"}, 2000));
  std::string got;
  std::uint8_t chunk[1024];
  while (got.find("data: tick 2") == std::string::npos) {
    const long n = sub.read_some(chunk, sizeof(chunk), 2000);
    ASSERT_GT(n, 0) << "stream stalled before three events";
    got.append(reinterpret_cast<const char*>(chunk), static_cast<std::size_t>(n));
  }
  EXPECT_NE(got.find("Content-Type: text/event-stream"), std::string::npos);
  EXPECT_EQ(server.streams_opened(), 1u);

  // Abrupt disconnect mid-stream: the server must shed the connection and
  // keep serving. A fresh plain request proves neither crash nor wedge.
  sub = TcpStream{};  // close
  TcpStream probe = TcpStream::connect_local(server.port());
  ASSERT_TRUE(probe.valid());
  ASSERT_TRUE(probe.write_all(std::string_view{
      "GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"}, 2000));
  EXPECT_NE(drain(probe).find("{\"plain\":true}"), std::string::npos);
  server.stop();
}

TEST(HttpServerTorture, StalledSubscriberCutAtOutputCap) {
  HttpServerConfig config;
  config.max_outbuf_bytes = 4096;
  HttpServer server{config};
  ASSERT_TRUE(server.start([](const HttpRequest&) {
    return HttpResponse::event_stream([](std::string& out) {
      out.append(65536, 'x');  // far beyond the cap every tick
      return true;
    });
  }).ok());

  TcpStream sub = TcpStream::connect_local(server.port());
  ASSERT_TRUE(sub.valid());
  ASSERT_TRUE(sub.write_all(std::string_view{"GET /stream HTTP/1.1\r\nHost: x\r\n\r\n"}, 2000));
  // Never read: the socket buffer fills, the server-side outbuf hits the
  // cap, and the subscriber is cut instead of buffered without bound.
  std::string got;
  std::uint8_t chunk[4096];
  for (;;) {
    const long n = sub.read_some(chunk, sizeof(chunk), 5000);
    if (n <= 0) break;  // EOF: the server dropped us
    got.append(reinterpret_cast<const char*>(chunk), static_cast<std::size_t>(n));
  }
  EXPECT_EQ(server.streams_overrun(), 1u);
  server.stop();
}

TEST(HttpServerTest, HeadStripsBodyButKeepsLength) {
  HttpServer server;
  ASSERT_TRUE(server.start([](const HttpRequest&) {
    return HttpResponse::json("{\"k\":123}");
  }).ok());

  TcpStream conn = TcpStream::connect_local(server.port());
  ASSERT_TRUE(conn.valid());
  ASSERT_TRUE(conn.write_all(
      std::string_view{"HEAD /metrics HTTP/1.0\r\n\r\n"}, 2000));
  const std::string got = drain(conn);  // HTTP/1.0 forces close -> EOF
  EXPECT_NE(got.find("Content-Length: 9\r\n"), std::string::npos);
  EXPECT_EQ(got.find("{\"k\":123}"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace agrarsec::net
