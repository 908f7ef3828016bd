// Embedded HTTP/1.1 server for the operations console. From scratch on
// top of net::TcpListener (repo policy: std-library/POSIX only), sized
// for an on-machine console, not the open internet:
//  - one dedicated server thread drives a poll(2) loop over the listener
//    plus a bounded set of live connections, so N observers are served
//    concurrently and a slow reader can never head-of-line-block the
//    console (connections beyond max_connections are answered with a
//    deterministic 503 and closed);
//  - a strict incremental request parser per connection with explicit
//    limits on request line, header count/size and body size; anything
//    out of spec is answered with a 4xx and the connection closed;
//  - keep-alive with pipelining: the parser consumes exactly one request
//    from the buffer, so back-to-back requests on one connection are
//    answered in order;
//  - long-lived streaming responses (Server-Sent Events): a handler may
//    attach a pull-model pump to the response; the server calls it on
//    every poll tick and forwards whatever it produces, bounded by a
//    per-connection output-buffer cap (a stalled subscriber is cut, not
//    buffered without limit);
//  - idle/slow-loris cutoff: a connection that leaves a request unfinished
//    past io_timeout_ms is answered 408 and closed (deadlines run on the
//    wall clock — this layer is wall-side observability, never part of a
//    deterministic export).
// The server is transport-only — routing lives in the handler callback
// (service::ConsoleService). Handlers and stream pumps run on the server
// thread; anything they touch must be thread-safe against the simulation
// threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/result.h"
#include "net/stream.h"

namespace agrarsec::net {

struct HttpRequest {
  std::string method;   ///< GET / POST / HEAD (parser rejects others)
  std::string target;   ///< origin-form target, e.g. "/metrics?n=32"
  std::string version;  ///< "HTTP/1.1" (parser rejects others)
  std::vector<std::pair<std::string, std::string>> headers;  ///< order kept
  std::string body;

  /// Case-insensitive header lookup (first match); empty when absent.
  [[nodiscard]] std::string_view header(std::string_view name) const;
  /// Target path without the query string.
  [[nodiscard]] std::string_view path() const;
  /// Value of query parameter `key` ("" when absent; no %-decoding).
  [[nodiscard]] std::string_view query_param(std::string_view key) const;
};

struct HttpResponse {
  /// Pull-model streaming pump. Called on every server poll tick with the
  /// connection's output string; append whatever is due (possibly
  /// nothing). Return false to end the stream — pending output is flushed
  /// and the connection closed. Runs on the server thread.
  using StreamPump = std::function<bool(std::string& out)>;

  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  bool close_connection = false;
  /// When set, the response is streamed: the head goes out with
  /// `content_type` and no Content-Length, `body` is ignored, and the
  /// pump produces the payload incrementally until it returns false.
  StreamPump stream;

  [[nodiscard]] std::string serialize() const;
  /// Status line + headers for a streaming response (no Content-Length,
  /// Connection: close — SSE streams end by disconnect).
  [[nodiscard]] std::string serialize_stream_head() const;
  static HttpResponse json(std::string body);
  static HttpResponse text(int status, std::string body);
  /// {"error":<code>,"message":<message>}, both escaped by
  /// core::append_json_string (control bytes included).
  static HttpResponse error(int status, std::string_view code,
                            std::string_view message);
  /// text/event-stream response driven by `pump`.
  static HttpResponse event_stream(StreamPump pump);
};

/// Longest request line the parser accepts; a longer one is answered 414.
inline constexpr std::size_t kMaxRequestLine = 4096;

/// Hard limits the parser enforces. Defaults fit console traffic with an
/// order of magnitude of slack.
struct HttpLimits {
  std::size_t max_header_count = 64;
  std::size_t max_header_bytes = 16384;  ///< total, incl. terminators
  std::size_t max_body_bytes = 65536;
};

/// Incremental strict parser. Feed bytes with append(); poll() consumes
/// at most one complete request from the front of the buffer, leaving any
/// pipelined follow-up in place.
class HttpRequestParser {
 public:
  explicit HttpRequestParser(HttpLimits limits = {}) : limits_(limits) {}

  enum class Status : std::uint8_t {
    kNeedMore = 0,  ///< buffer holds no complete request yet
    kComplete = 1,  ///< `request` filled, its bytes consumed
    kError = 2,     ///< protocol violation; error_status() says which
  };

  void append(std::string_view bytes) { buffer_.append(bytes); }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

  Status poll(HttpRequest& request);
  /// HTTP status code to answer with after kError (e.g. 400, 431, 501).
  [[nodiscard]] int error_status() const { return error_status_; }

 private:
  Status fail(int status) {
    error_status_ = status;
    return Status::kError;
  }

  HttpLimits limits_;
  std::string buffer_;
  int error_status_ = 0;
};

struct HttpServerConfig {
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  /// Idle cutoff per connection: a connection with a partial request
  /// pending past this deadline is answered 408; an idle keep-alive
  /// connection is silently closed. Streaming connections are exempt
  /// (the server is the writer); they are bounded by max_outbuf_bytes.
  int io_timeout_ms = 2000;
  int max_requests_per_connection = 128;
  /// Hard bound on concurrently served connections. Accepts beyond the
  /// bound are answered with a deterministic 503 and closed.
  std::size_t max_connections = 32;
  /// Per-connection pending-output cap. A subscriber that reads slower
  /// than its stream produces is disconnected once this much output is
  /// queued — bounded subscriber lag, enforced at the transport.
  std::size_t max_outbuf_bytes = 1 << 20;
  HttpLimits limits;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(HttpServerConfig config = {}) : config_(config) {}
  ~HttpServer() { stop(); }

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds and launches the server thread. Fails if already running or
  /// the port is taken.
  core::Status start(Handler handler);
  /// Stops the poll loop, drops all connections and joins the thread.
  /// Idempotent.
  void stop();
  [[nodiscard]] bool running() const { return thread_.joinable(); }
  /// Bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Connections accepted / requests served / protocol errors answered /
  /// over-limit rejections / streams opened / streams cut for lag — wall-
  /// side observability for the console's own traffic.
  [[nodiscard]] std::uint64_t connections_accepted() const {
    return connections_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t protocol_errors() const {
    return errors_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t connections_rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t streams_opened() const {
    return streams_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t streams_overrun() const {
    return overruns_.load(std::memory_order_relaxed);
  }

 private:
  /// One live connection in the poll set.
  struct Connection {
    TcpStream stream;
    HttpRequestParser parser;
    int served = 0;
    std::string outbuf;           ///< serialized, not yet written
    std::size_t out_off = 0;      ///< bytes of outbuf already written
    HttpResponse::StreamPump pump;  ///< engaged once a stream starts
    bool close_after_flush = false;
    std::uint64_t idle_since_ns = 0;  ///< wall clock; see io_timeout_ms

    explicit Connection(TcpStream s, HttpLimits limits, std::uint64_t now)
        : stream(std::move(s)), parser(limits), idle_since_ns(now) {}
    [[nodiscard]] bool has_pending_out() const {
      return out_off < outbuf.size();
    }
  };

  void serve_loop();
  void accept_pending(std::vector<std::unique_ptr<Connection>>& conns,
                      std::uint64_t now);
  /// Drains readable bytes + parses/answers requests. False => drop.
  bool service_input(Connection& conn, std::uint64_t now);
  /// Runs the stream pump / idle deadline / flush. False => drop.
  bool service_output(Connection& conn, std::uint64_t now);
  void answer(Connection& conn, const HttpRequest& request);

  HttpServerConfig config_;
  Handler handler_;
  TcpListener listener_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> streams_{0};
  std::atomic<std::uint64_t> overruns_{0};
};

}  // namespace agrarsec::net
