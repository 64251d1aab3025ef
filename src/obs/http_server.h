#ifndef DISC_OBS_HTTP_SERVER_H_
#define DISC_OBS_HTTP_SERVER_H_

// Embedded telemetry HTTP server (docs/OBSERVABILITY.md §Live telemetry).
//
// A dependency-free POSIX-socket HTTP/1.1 server — one accept thread plus
// a small fixed worker pool over a bounded connection queue — that makes a
// running engine observable while it streams:
//
//   GET /metrics       Prometheus text exposition of the bound registry
//   GET /metrics.json  the same registry as one JSON object
//   GET /healthz       liveness + per-component readiness (JSON; HTTP 503
//                      when a bound component is not ready)
//   GET /sessions      one JSON row per engine session: window, slides,
//                      queue depth, watermark lag, last-slide latency
//   GET /tracez        the trace recorder's ring of recently completed
//                      phase spans (JSON)
//
// Every response is deterministic given the observed state: bodies are
// built from name-ordered registry maps and creation-ordered session rows,
// so concurrent scrapes of a quiesced process are byte-identical and
// nothing hash-ordered ever reaches the wire (enforced by disc_lint's
// unordered-iteration rule over the emit sites).
//
// Cost model: a scrape serializes the registry under its registration
// mutex (microseconds at typical metric counts) and never blocks metric
// writers, which go through relaxed atomics; /sessions takes the engine
// mutex and therefore waits for an in-flight Drain round. The server
// itself touches no engine or registry state between requests.
//
// Lifecycle: Start() binds (port 0 = ephemeral, see port()), Stop() shuts
// the listener, drains queued connections, and joins every thread; the
// destructor calls Stop(). Intended for loopback telemetry, not for
// serving untrusted networks: requests are size-capped, parsed
// minimally, and always answered with `Connection: close`.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace disc {
namespace obs {

// One engine session's live status, as served by /sessions. Rows come back
// in session-creation order (deterministic).
struct SessionStatusRow {
  std::string name;
  std::uint64_t id = 0;
  std::size_t window_size = 0;      // Points currently in the window.
  std::size_t slides_run = 0;       // Slides executed since creation.
  std::size_t queue_depth = 0;      // Slides fed but not yet drained.
  std::size_t watermark_lag_slides = 0;  // Engine watermark - slides_run.
  double last_slide_ms = 0.0;       // Update latency of the last slide.
};

// What the server pulls session rows and readiness from. DiscEngine
// implements this; any host with named streams can.
class EngineStatusProvider {
 public:
  virtual ~EngineStatusProvider() = default;
  // Snapshot of every session, creation order. Must be safe to call from
  // server worker threads.
  virtual std::vector<SessionStatusRow> SessionStatus() const = 0;
};

// Response under construction. `Write` appends to the body — it is a
// disc_lint emit sink: never feed it from a hash-ordered loop.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;

  void Write(std::string_view chunk) { body.append(chunk); }
};

struct HttpServerOptions {
  // 0 binds an ephemeral port (read it back via port()) — what tests and
  // `--serve 0` use.
  std::uint16_t port = 0;
  std::string bind_address = "127.0.0.1";
  // Workers handling parsed requests; the accept thread never parses.
  std::size_t worker_threads = 2;
  // Accepted-but-unhandled connections beyond this are answered 503
  // immediately (bounded backlog instead of unbounded queueing).
  std::size_t max_queued_connections = 16;
  // Requests whose head exceeds this are answered 431 and closed.
  std::size_t max_request_bytes = 4096;

  // Bindings, all borrowed and optional (must outlive the server).
  // Unbound routes answer 503 with a JSON error body.
  MetricsRegistry* metrics = nullptr;
  const EngineStatusProvider* engine = nullptr;
  TraceRecorder* tracer = nullptr;

  // Optional extra readiness probe for a co-hosted ingest listener
  // (net/ingest_server.h). When set, /healthz gains an "ingest" component
  // that must report true for overall readiness — a daemon whose ingest
  // plane died flips to 503 even while the telemetry plane still answers.
  // Called from server worker threads; must be thread-safe.
  std::function<bool()> ingest_ready;
};

class HttpServer {
 public:
  explicit HttpServer(const HttpServerOptions& options);
  ~HttpServer();  // Stops if running.

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds, listens, and spawns the accept + worker threads. Fails with a
  // descriptive Status (address in use, bad bind address, ...) without
  // leaking any fd or thread.
  Status Start();

  // Graceful shutdown: stops accepting, answers nothing further, joins
  // every thread, closes queued connections. Idempotent.
  void Stop();

  bool running() const;

  // The bound port (the ephemeral one when options.port == 0); 0 when not
  // running.
  std::uint16_t port() const;

  // Routes `target` (path only, no host) exactly as a socket request
  // would, minus the socket. What tests and the in-process scrape path
  // use; handlers are pure functions of the bound components' state.
  HttpResponse Handle(std::string_view target) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Minimal blocking HTTP/1.1 GET against 127.0.0.1:<port>, for tests,
// benches, and tools — not a general client. Returns the body and stores
// the status code (0 on transport failure, with the error message as the
// returned body).
std::string HttpGet(std::uint16_t port, const std::string& target,
                    int* status_code);

}  // namespace obs
}  // namespace disc

#endif  // DISC_OBS_HTTP_SERVER_H_
