#include "obs/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/failpoint.h"
#include "common/socket_util.h"
#include "obs/log.h"

namespace disc {
namespace obs {

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string FormatMillis(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

std::string SerializeResponse(const HttpResponse& response) {
  std::string out;
  out.reserve(response.body.size() + 128);
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += ReasonPhrase(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

void SendAll(int fd, const std::string& bytes) {
  // Peer going away mid-send leaves nothing useful to do; SendAllBytes
  // already stops on the first failed send.
  [[maybe_unused]] const bool sent =
      SendAllBytes(fd, bytes.data(), bytes.size());
}

HttpResponse JsonError(int status, std::string_view message) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.Write("{\"error\":\"");
  response.Write(JsonEscape(message));
  response.Write("\"}\n");
  return response;
}

}  // namespace

// ---------------------------------------------------------------------------
// Impl
// ---------------------------------------------------------------------------

// The listener/self-pipe/bounded-worker plumbing lives in
// common/socket_util.h (shared with the ingest plane); what remains here
// is purely the HTTP protocol: head parsing, routing, serialization.
struct HttpServer::Impl {
  explicit Impl(const HttpServerOptions& opts) : options(opts) {}

  HttpServerOptions options;
  std::unique_ptr<SocketServer> server;

  void HandleConnection(int fd) const;
  HttpResponse Route(std::string_view target) const;
};

void HttpServer::Impl::HandleConnection(int fd) const {
  std::string head;
  head.reserve(512);
  char buf[1024];
  bool oversized = false;
  while (head.find("\r\n\r\n") == std::string::npos) {
    if (head.size() > options.max_request_bytes) {
      oversized = true;
      break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      // Timeout, reset, or a client that never finished the head: no
      // response owed unless we already know the head is hopeless.
      if (head.empty()) return;
      break;
    }
    head.append(buf, static_cast<std::size_t>(n));
  }
  if (oversized) {
    DISC_LOG(kWarn, "telemetry.http_request_oversized")
        .Num("bytes", head.size())
        .Num("limit", options.max_request_bytes);
    SendAll(fd, SerializeResponse(JsonError(431, "request head too large")));
    return;
  }
  // Request line: METHOD SP TARGET SP HTTP/x.y CRLF
  const std::size_t line_end = head.find("\r\n");
  const std::string line =
      head.substr(0, line_end == std::string::npos ? head.size() : line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos
                              ? std::string::npos
                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      line.compare(sp2 + 1, 5, "HTTP/") != 0 || sp2 == sp1 + 1) {
    DISC_LOG(kWarn, "telemetry.http_malformed_request")
        .Str("line", line.substr(0, 128));
    SendAll(fd, SerializeResponse(JsonError(400, "malformed request line")));
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    SendAll(fd, SerializeResponse(
                    JsonError(405, "only GET is supported")));
    return;
  }
  const std::string payload = SerializeResponse(Route(target));
  if (failpoint::Armed()) {
    // Fault surface for "the kernel took some of our bytes, then the peer
    // vanished": send a torn prefix and abandon the connection. The
    // response object itself was fully built from a consistent registry
    // snapshot, so the *next* scrape must still be byte-clean.
    const std::size_t budget =
        failpoint::HitSendBudget("http.response.send", payload.size());
    if (budget < payload.size()) {
      SendAll(fd, payload.substr(0, budget));
      DISC_LOG(kWarn, "telemetry.http_send_truncated")
          .Num("sent", budget)
          .Num("size", payload.size());
      return;
    }
  }
  SendAll(fd, payload);
}

HttpResponse HttpServer::Impl::Route(std::string_view target) const {
  const std::size_t query = target.find('?');
  if (query != std::string_view::npos) target = target.substr(0, query);

  if (target == "/metrics") {
    if (options.metrics == nullptr) {
      return JsonError(503, "no metrics registry bound");
    }
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    std::ostringstream os;
    options.metrics->WritePrometheus(os);
    response.Write(os.str());
    return response;
  }

  if (target == "/metrics.json") {
    if (options.metrics == nullptr) {
      return JsonError(503, "no metrics registry bound");
    }
    HttpResponse response;
    response.content_type = "application/json";
    std::ostringstream os;
    options.metrics->WriteJson(os);
    response.Write(os.str());
    return response;
  }

  if (target == "/healthz") {
    // Per-component readiness. The process is live by construction (it is
    // answering); readiness additionally requires a bound registry, a
    // healthy co-hosted ingest listener when one is bound, and — when an
    // engine is bound — at least one admitted session, so closing the
    // last session flips /healthz to 503.
    std::vector<SessionStatusRow> session_rows;
    if (options.engine != nullptr) {
      session_rows = options.engine->SessionStatus();
    }
    const bool engine_ready = options.engine == nullptr || !session_rows.empty();
    const bool ingest_ready = !options.ingest_ready || options.ingest_ready();
    const bool ready = options.metrics != nullptr && engine_ready &&
                       ingest_ready;
    HttpResponse response;
    response.status = ready ? 200 : 503;
    response.content_type = "application/json";
    response.Write("{\"live\":true,\"ready\":");
    response.Write(ready ? "true" : "false");
    response.Write(",\"components\":{\"engine\":\"");
    response.Write(options.engine == nullptr ? "unbound"
                   : session_rows.empty()            ? "no_sessions"
                                             : "ok");
    response.Write("\",\"ingest\":\"");
    response.Write(!options.ingest_ready ? "unbound"
                   : ingest_ready        ? "ok"
                                         : "not_listening");
    response.Write("\",\"metrics\":\"");
    response.Write(options.metrics == nullptr ? "unbound" : "ok");
    response.Write("\",\"tracer\":\"");
    response.Write(options.tracer == nullptr ? "unbound" : "ok");
    response.Write("\"}}\n");
    return response;
  }

  if (target == "/sessions") {
    HttpResponse response;
    response.content_type = "application/json";
    response.Write("{\"sessions\":[");
    if (options.engine != nullptr) {
      const std::vector<SessionStatusRow> session_rows =
          options.engine->SessionStatus();
      // Creation order straight from the provider — deterministic, and a
      // vector walk, so hash order cannot leak into the wire format.
      bool first = true;
      for (const SessionStatusRow& row : session_rows) {
        if (!first) response.Write(",");
        first = false;
        response.Write("{\"name\":\"");
        response.Write(JsonEscape(row.name));
        response.Write("\",\"id\":");
        response.Write(std::to_string(row.id));
        response.Write(",\"window_size\":");
        response.Write(std::to_string(row.window_size));
        response.Write(",\"slides_run\":");
        response.Write(std::to_string(row.slides_run));
        response.Write(",\"queue_depth\":");
        response.Write(std::to_string(row.queue_depth));
        response.Write(",\"watermark_lag_slides\":");
        response.Write(std::to_string(row.watermark_lag_slides));
        response.Write(",\"last_slide_ms\":");
        response.Write(FormatMillis(row.last_slide_ms));
        response.Write("}");
      }
    }
    response.Write("]}\n");
    return response;
  }

  if (target == "/tracez") {
    HttpResponse response;
    response.content_type = "application/json";
    response.Write("{\"spans\":[");
    if (options.tracer != nullptr) {
      const std::vector<CompletedSpan> spans = options.tracer->TailSnapshot();
      bool first = true;
      for (const CompletedSpan& span : spans) {
        if (!first) response.Write(",");
        first = false;
        response.Write("{\"name\":\"");
        response.Write(JsonEscape(span.name == nullptr ? "" : span.name));
        response.Write("\",\"tid\":");
        response.Write(std::to_string(span.tid));
        response.Write(",\"start_us\":");
        response.Write(std::to_string(span.start_us));
        response.Write(",\"dur_us\":");
        response.Write(std::to_string(span.dur_us));
        if (span.num_args > 0) {
          response.Write(",\"args\":{");
          for (std::uint8_t i = 0; i < span.num_args; ++i) {
            if (i > 0) response.Write(",");
            response.Write("\"");
            response.Write(JsonEscape(span.args[i].key));
            response.Write("\":");
            response.Write(std::to_string(span.args[i].value));
          }
          response.Write("}");
        }
        response.Write("}");
      }
    }
    response.Write("]}\n");
    return response;
  }

  return JsonError(404, "unknown route; try /metrics, /metrics.json, "
                        "/healthz, /sessions, /tracez");
}

// ---------------------------------------------------------------------------
// HttpServer
// ---------------------------------------------------------------------------

HttpServer::HttpServer(const HttpServerOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  Impl& impl = *impl_;
  if (impl.server != nullptr && impl.server->running()) {
    return Status::Error("telemetry server already running on port " +
                         std::to_string(impl.server->port()));
  }
  SocketServerOptions server_options;
  server_options.name = "telemetry";
  server_options.bind_address = impl.options.bind_address;
  server_options.port = impl.options.port;
  server_options.worker_threads = impl.options.worker_threads;
  server_options.max_queued_connections = impl.options.max_queued_connections;
  server_options.accept_failpoint = "http.accept.conn";
  server_options.handler = [this](int fd) {
    DISC_FAILPOINT("http.worker.handle");
    impl_->HandleConnection(fd);
  };
  server_options.on_overload = [](int fd) {
    SendAll(fd,
            SerializeResponse(JsonError(503, "telemetry server overloaded")));
  };
  auto server = std::make_unique<SocketServer>(std::move(server_options));
  if (Status started = server->Start(); !started.ok()) return started;
  impl.server = std::move(server);
  return Status::Ok();
}

void HttpServer::Stop() {
  if (impl_->server != nullptr) impl_->server->Stop();
}

bool HttpServer::running() const {
  return impl_->server != nullptr && impl_->server->running();
}

std::uint16_t HttpServer::port() const {
  return impl_->server == nullptr ? 0 : impl_->server->port();
}

HttpResponse HttpServer::Handle(std::string_view target) const {
  return impl_->Route(target);
}

// ---------------------------------------------------------------------------
// HttpGet
// ---------------------------------------------------------------------------

std::string HttpGet(std::uint16_t port, const std::string& target,
                    int* status_code) {
  if (status_code != nullptr) *status_code = 0;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::string("socket(): ") + std::strerror(errno);
  SetIoTimeouts(fd, 10);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return "connect(): " + error;
  }
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  SendAll(fd, request);
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return "malformed response: " + raw;
  if (status_code != nullptr && raw.size() > 12 &&
      raw.compare(0, 9, "HTTP/1.1 ") == 0) {
    *status_code = std::atoi(raw.c_str() + 9);
  }
  return raw.substr(head_end + 4);
}

}  // namespace obs
}  // namespace disc
