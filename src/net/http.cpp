#include "net/http.h"

#include <poll.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <memory>

#include "core/json.h"

namespace agrarsec::net {

namespace {

/// Poll tick of the server loop: stream pumps fire and the stop flag is
/// observed at this cadence (also the upper bound on event-delivery
/// latency for SSE).
constexpr int kPollIntervalMs = 20;

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// RFC 9110 token characters (header names, methods).
bool is_token_char(char c) {
  if (std::isalnum(static_cast<unsigned char>(c)) != 0) return true;
  return std::string_view{"!#$%&'*+-.^_`|~"}.find(c) != std::string_view::npos;
}

bool is_token(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), is_token_char);
}

std::string_view trim_ows(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

std::string_view status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Content Too Large";
    case 414: return "URI Too Long";
    case 431: return "Request Header Fields Too Large";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

/// Wall-clock now for connection deadlines and stream pacing. This layer
/// is wall-side observability plumbing — nothing here feeds deterministic
/// exports.
std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// --- HttpRequest -----------------------------------------------------------

std::string_view HttpRequest::header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (iequals(key, name)) return value;
  }
  return {};
}

std::string_view HttpRequest::path() const {
  const std::string_view t = target;
  const std::size_t q = t.find('?');
  return q == std::string_view::npos ? t : t.substr(0, q);
}

std::string_view HttpRequest::query_param(std::string_view key) const {
  const std::string_view t = target;
  const std::size_t q = t.find('?');
  if (q == std::string_view::npos) return {};
  std::string_view rest = t.substr(q + 1);
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    if (amp == std::string_view::npos) break;
    rest.remove_prefix(amp + 1);
  }
  return {};
}

// --- HttpResponse ----------------------------------------------------------

std::string HttpResponse::serialize() const {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " ";
  out += status_reason(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += close_connection ? "\r\nConnection: close" : "\r\nConnection: keep-alive";
  out += "\r\n\r\n";
  out += body;
  return out;
}

HttpResponse HttpResponse::json(std::string body) {
  HttpResponse r;
  r.body = std::move(body);
  return r;
}

HttpResponse HttpResponse::text(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.content_type = "text/plain";
  r.body = std::move(body);
  return r;
}

std::string HttpResponse::serialize_stream_head() const {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " ";
  out += status_reason(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  // No Content-Length: the payload is open-ended; the stream ends by
  // disconnect (ours on pump exhaustion, or the subscriber hanging up).
  out += "\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n";
  return out;
}

HttpResponse HttpResponse::event_stream(StreamPump pump) {
  HttpResponse r;
  r.content_type = "text/event-stream";
  r.stream = std::move(pump);
  return r;
}

HttpResponse HttpResponse::error(int status, std::string_view code,
                                 std::string_view message) {
  HttpResponse r;
  r.status = status;
  r.body = "{\"error\":";
  core::append_json_string(r.body, code);
  r.body += ",\"message\":";
  core::append_json_string(r.body, message);
  r.body += "}";
  r.close_connection = status >= 400;
  return r;
}

// --- HttpRequestParser -----------------------------------------------------

HttpRequestParser::Status HttpRequestParser::poll(HttpRequest& request) {
  // Request line.
  const std::size_t line_end = buffer_.find("\r\n");
  if (line_end == std::string::npos) {
    return buffer_.size() > kMaxRequestLine ? fail(414) : Status::kNeedMore;
  }
  if (line_end > kMaxRequestLine) return fail(414);

  const std::string_view line{buffer_.data(), line_end};
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string_view::npos
                              ? std::string_view::npos
                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      line.find(' ', sp2 + 1) != std::string_view::npos) {
    return fail(400);
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (!is_token(method)) return fail(400);
  if (method != "GET" && method != "POST" && method != "HEAD") return fail(405);
  // Origin-form targets only; strict enough for a console.
  if (target.empty() || target.front() != '/') return fail(400);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") return fail(400);

  // Header block.
  const std::size_t headers_begin = line_end + 2;
  const std::size_t block_end = buffer_.find("\r\n\r\n", line_end);
  if (block_end == std::string::npos) {
    return buffer_.size() - headers_begin > limits_.max_header_bytes
               ? fail(431)
               : Status::kNeedMore;
  }
  if (block_end + 4 - headers_begin > limits_.max_header_bytes) return fail(431);

  std::vector<std::pair<std::string, std::string>> headers;
  std::size_t pos = headers_begin;
  while (pos < block_end) {
    std::size_t eol = buffer_.find("\r\n", pos);
    if (eol > block_end) eol = block_end;
    const std::string_view header_line{buffer_.data() + pos, eol - pos};
    pos = eol + 2;
    const std::size_t colon = header_line.find(':');
    if (colon == std::string_view::npos) return fail(400);
    const std::string_view name = header_line.substr(0, colon);
    if (!is_token(name)) return fail(400);  // also rejects obs-fold leading WS
    if (headers.size() >= limits_.max_header_count) return fail(431);
    headers.emplace_back(std::string(name),
                         std::string(trim_ows(header_line.substr(colon + 1))));
  }

  // Body: Content-Length only. Transfer codings are out of scope for the
  // console; reject instead of misinterpreting.
  std::size_t content_length = 0;
  for (const auto& [name, value] : headers) {
    if (iequals(name, "Transfer-Encoding")) return fail(501);
    if (iequals(name, "Content-Length")) {
      if (value.empty() ||
          !std::all_of(value.begin(), value.end(),
                       [](char c) { return std::isdigit(static_cast<unsigned char>(c)); }) ||
          value.size() > 10) {
        return fail(400);
      }
      content_length = static_cast<std::size_t>(std::stoull(value));
      if (content_length > limits_.max_body_bytes) return fail(413);
    }
  }

  const std::size_t body_begin = block_end + 4;
  if (buffer_.size() - body_begin < content_length) return Status::kNeedMore;

  request.method = std::string(method);
  request.target = std::string(target);
  request.version = std::string(version);
  request.headers = std::move(headers);
  request.body = buffer_.substr(body_begin, content_length);
  buffer_.erase(0, body_begin + content_length);  // keep pipelined follow-ups
  return Status::kComplete;
}

// --- HttpServer ------------------------------------------------------------

core::Status HttpServer::start(Handler handler) {
  if (running()) return core::make_error("running", "server already started");
  if (!handler) return core::make_error("no_handler", "handler required");
  handler_ = std::move(handler);
  if (auto status = listener_.bind_and_listen(config_.port); !status.ok()) {
    return status;
  }
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve_loop(); });
  return core::Status::ok_status();
}

void HttpServer::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  listener_.close();
}

void HttpServer::serve_loop() {
  // Poll-driven connection set: one pollfd for the listener plus one per
  // live connection. Every tick accepts pending connections (bounded by
  // max_connections with a deterministic 503 beyond it), drains readable
  // sockets through each connection's own parser, runs stream pumps, and
  // flushes pending output — no connection can block another.
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<pollfd> fds;
  while (!stop_.load(std::memory_order_relaxed)) {
    fds.clear();
    fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    for (const auto& conn : conns) {
      short events = POLLIN;
      if (conn->has_pending_out()) events |= POLLOUT;
      fds.push_back(pollfd{conn->stream.fd(), events, 0});
    }
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), kPollIntervalMs);
    if (rc < 0 && errno != EINTR) break;
    const std::uint64_t now = wall_now_ns();

    if ((fds[0].revents & POLLIN) != 0) accept_pending(conns, now);

    // Service connections; fds[i + 1] corresponds to conns[i]. Accepts
    // were appended after the fds snapshot, so a fresh connection gets
    // its first input service on the next tick.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Connection& conn = *conns[i];
      bool keep = true;
      const std::size_t fd_index = i + 1;
      if (fd_index < fds.size() &&
          (fds[fd_index].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        keep = service_input(conn, now);
      }
      if (keep) keep = service_output(conn, now);
      if (keep) conns[kept++] = std::move(conns[i]);
    }
    conns.resize(kept);
  }
}

void HttpServer::accept_pending(
    std::vector<std::unique_ptr<Connection>>& conns, std::uint64_t now) {
  for (;;) {
    TcpStream stream = listener_.accept_conn(0);
    if (!stream.valid()) return;
    if (conns.size() >= config_.max_connections) {
      // Deterministic rejection: every over-limit connection gets the
      // same 503 and an immediate close (tiny write into an empty socket
      // buffer — never blocks the loop in practice).
      rejected_.fetch_add(1, std::memory_order_relaxed);
      const auto response = HttpResponse::error(
          503, "overloaded", "console connection limit reached");
      (void)stream.write_all(response.serialize(), config_.io_timeout_ms);
      continue;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    conns.push_back(
        std::make_unique<Connection>(std::move(stream), config_.limits, now));
  }
}

bool HttpServer::service_input(Connection& conn, std::uint64_t now) {
  std::uint8_t chunk[4096];
  for (;;) {
    const long n = conn.stream.read_nowait(chunk, sizeof(chunk));
    if (n == -1) break;   // drained for now
    if (n == -2) return false;
    if (n == 0) {
      // Peer closed its write side. Flush whatever is queued, then drop;
      // a mid-stream disconnect lands here too.
      conn.close_after_flush = true;
      return conn.has_pending_out();
    }
    conn.idle_since_ns = now;
    if (conn.pump || conn.close_after_flush) continue;  // discard input
    conn.parser.append(std::string_view{reinterpret_cast<const char*>(chunk),
                                        static_cast<std::size_t>(n)});
  }
  while (!conn.pump && !conn.close_after_flush) {
    HttpRequest request;
    const HttpRequestParser::Status st = conn.parser.poll(request);
    if (st == HttpRequestParser::Status::kNeedMore) break;
    if (st == HttpRequestParser::Status::kError) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      const auto response = HttpResponse::error(
          conn.parser.error_status(), "bad_request", "malformed HTTP request");
      conn.outbuf += response.serialize();
      conn.close_after_flush = true;
      break;
    }
    answer(conn, request);
  }
  return true;
}

void HttpServer::answer(Connection& conn, const HttpRequest& request) {
  HttpResponse response = handler_(request);
  const bool head = request.method == "HEAD";
  if (request.version == "HTTP/1.0" ||
      iequals(request.header("Connection"), "close")) {
    response.close_connection = true;
  }
  // Count before the flush: a client that has read the response must
  // already observe it in requests_served().
  requests_.fetch_add(1, std::memory_order_relaxed);
  ++conn.served;
  if (response.stream) {
    conn.outbuf += response.serialize_stream_head();
    if (head) {
      conn.close_after_flush = true;
      return;
    }
    streams_.fetch_add(1, std::memory_order_relaxed);
    conn.pump = std::move(response.stream);
    return;  // pipelined follow-ups after a stream are ignored
  }
  std::string wire = response.serialize();
  if (head) wire.resize(wire.size() - response.body.size());
  conn.outbuf += wire;
  if (response.close_connection ||
      conn.served >= config_.max_requests_per_connection) {
    conn.close_after_flush = true;
  }
}

bool HttpServer::service_output(Connection& conn, std::uint64_t now) {
  if (conn.pump && !conn.close_after_flush) {
    if (!conn.pump(conn.outbuf)) conn.close_after_flush = true;
    if (conn.outbuf.size() - conn.out_off > config_.max_outbuf_bytes) {
      // Bounded subscriber lag: the reader fell further behind than the
      // output cap allows — cut it rather than buffer without limit.
      overruns_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  if (conn.has_pending_out()) {
    const long n = conn.stream.write_nowait(
        std::string_view{conn.outbuf}.substr(conn.out_off));
    if (n < 0) return false;
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      conn.idle_since_ns = now;
    }
    if (!conn.has_pending_out()) {
      conn.outbuf.clear();
      conn.out_off = 0;
    }
  }
  if (conn.close_after_flush && !conn.has_pending_out()) return false;
  // Idle / slow-loris cutoff (wall-clock deadline). Streaming connections
  // are exempt: the server is the writer there.
  if (!conn.pump && !conn.close_after_flush &&
      now - conn.idle_since_ns >
          static_cast<std::uint64_t>(config_.io_timeout_ms) * 1000000ull) {
    if (conn.parser.buffered() > 0) {
      const auto response = HttpResponse::error(
          408, "timeout", "request not completed in time");
      conn.outbuf += response.serialize();
    }
    conn.close_after_flush = true;
    return conn.has_pending_out();
  }
  return true;
}

}  // namespace agrarsec::net
