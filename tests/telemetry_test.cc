// Live telemetry plane: the embedded HTTP server must bind ephemerally,
// serve deterministic bodies for every route, reject malformed/oversized
// requests with the right status codes, flip /healthz when the last session
// closes, survive concurrent scrapes while slides run (TSan-clean), and
// stop gracefully under load. The structured logger must emit fixed-key-
// order JSON, gate on level, and rate-limit per site; the registry must
// sanitize invalid metric names and attach # HELP docstrings.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/disc_engine.h"
#include "gtest/gtest.h"
#include "obs/http_server.h"
#include "obs/log.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "stream/blobs_generator.h"

namespace disc {
namespace {

constexpr std::size_t kWindow = 240;
constexpr std::size_t kStride = 60;

SessionOptions TestSession() {
  SessionOptions options;
  options.spec.dims = 2;
  options.spec.window_size = kWindow;
  options.spec.stride = kStride;
  options.spec.disc.eps = 0.4;
  options.spec.disc.tau = 5;
  return options;
}

std::vector<std::vector<Point>> MakeSlides(std::uint64_t seed,
                                           std::size_t num_slides) {
  BlobsGenerator::Options o;
  o.dims = 2;
  o.num_blobs = 4;
  o.extent = 8.0;
  o.stddev = 0.3;
  o.noise_fraction = 0.1;
  o.drift = 0.05;
  o.seed = seed;
  BlobsGenerator gen(o);
  std::vector<std::vector<Point>> slides(num_slides);
  for (auto& slide : slides) slide = gen.NextPoints(kStride);
  return slides;
}

// Sends raw bytes (not necessarily valid HTTP) and returns the status code
// parsed from the response line, or 0 when the server just closed. Lets the
// malformed/oversized tests drive the parser off the happy path HttpGet
// can't leave.
int SendRaw(std::uint16_t port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (raw.compare(0, 9, "HTTP/1.1 ") != 0) return 0;
  return std::atoi(raw.c_str() + 9);
}

// Captures structured records; installed via ScopedSink so a failing test
// can't leak itself into later tests' logging.
class CaptureSink : public obs::LogSink {
 public:
  void Write(const obs::LogRecord& record) override {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(record);
  }
  std::vector<obs::LogRecord> records() {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
  }

 private:
  std::mutex mutex_;
  std::vector<obs::LogRecord> records_;
};

class ScopedSink {
 public:
  explicit ScopedSink(obs::LogSink* sink) { previous_ = obs::SetLogSink(sink); }
  ~ScopedSink() { obs::SetLogSink(previous_); }

 private:
  obs::LogSink* previous_;
};

// ---------------------------------------------------------------------------
// Structured logging
// ---------------------------------------------------------------------------

TEST(LogTest, FixedKeyOrderJson) {
  CaptureSink sink;
  ScopedSink scoped(&sink);
  obs::SetLogTimestamps(false);
  DISC_LOG(kWarn, "test.event").Str("who", "a\"b").Num("n", 7).Num("f", 0.5);
  obs::SetLogTimestamps(true);

  const auto records = sink.records();
  ASSERT_EQ(records.size(), 1u);
  const obs::LogRecord& r = records[0];
  EXPECT_EQ(r.level, obs::LogLevel::kWarn);
  EXPECT_EQ(r.event, "test.event");
  EXPECT_EQ(r.site.substr(0, r.site.find(':')), "telemetry_test.cc");
  ASSERT_EQ(r.fields.size(), 3u);
  EXPECT_EQ(r.fields[0].key, "who");
  EXPECT_EQ(r.fields[0].value, "\"a\\\"b\"");
  EXPECT_EQ(r.fields[1].value, "7");
  EXPECT_EQ(r.fields[2].value, "0.5");
  // With timestamps off the serialized line is fully deterministic.
  const std::string expected = "{\"level\":\"warn\",\"event\":\"test.event\","
                               "\"site\":\"" + r.site + "\","
                               "\"who\":\"a\\\"b\",\"n\":7,\"f\":0.5}";
  EXPECT_EQ(r.json, expected);
}

TEST(LogTest, LevelGatesEmission) {
  CaptureSink sink;
  ScopedSink scoped(&sink);
  obs::SetLogLevel(obs::LogLevel::kWarn);
  DISC_LOG(kInfo, "test.filtered").Num("n", 1);
  DISC_LOG(kError, "test.kept").Num("n", 2);
  obs::SetLogLevel(obs::LogLevel::kInfo);

  const auto records = sink.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].event, "test.kept");
}

TEST(LogTest, PerSiteTokenBucketSuppresses) {
  CaptureSink sink;
  ScopedSink scoped(&sink);
  static double t_now = 0.0;
  obs::SetLogClockForTest(+[]() { return t_now; });
  obs::SetLogRateLimit(/*per_second=*/1.0, /*burst=*/3.0);

  // One lambda = one DISC_LOG line = one rate-limited site.
  const auto log_once = [](int i) { DISC_LOG(kWarn, "test.flood").Num("i", i); };
  for (int i = 0; i < 10; ++i) log_once(i);
  // Burst of 3 admitted, 7 dropped. Refill one token and the next record
  // at the same site carries the suppressed count.
  t_now = 1.0;
  log_once(10);

  obs::SetLogRateLimit(5.0, 10.0);
  obs::SetLogClockForTest(nullptr);

  const auto records = sink.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[2].suppressed, 0u);
  EXPECT_EQ(records[3].suppressed, 7u);
  EXPECT_NE(records[3].json.find("\"suppressed\":7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metric names and # HELP
// ---------------------------------------------------------------------------

TEST(MetricsNameTest, ValidateRejectsWithDescriptiveError) {
  EXPECT_TRUE(obs::MetricsRegistry::ValidateName("engine_slides_total").ok());
  EXPECT_TRUE(obs::MetricsRegistry::ValidateName("_x9").ok());

  const Status empty = obs::MetricsRegistry::ValidateName("");
  EXPECT_FALSE(empty.ok());
  EXPECT_NE(empty.message().find("empty"), std::string::npos);

  const Status bad = obs::MetricsRegistry::ValidateName("http.latency-ms");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("'.'"), std::string::npos);
  EXPECT_NE(bad.message().find("position 4"), std::string::npos);

  EXPECT_FALSE(obs::MetricsRegistry::ValidateName("9lives").ok());
}

TEST(MetricsNameTest, SanitizeMapsOntoValidAlphabet) {
  EXPECT_EQ(obs::MetricsRegistry::SanitizeName("http.latency-ms"),
            "http_latency_ms");
  EXPECT_EQ(obs::MetricsRegistry::SanitizeName("9lives"), "_9lives");
  EXPECT_EQ(obs::MetricsRegistry::SanitizeName(""), "_");
  EXPECT_EQ(obs::MetricsRegistry::SanitizeName("ok_name"), "ok_name");
}

TEST(MetricsNameTest, RegistrationSanitizesAndExportStaysValid) {
  obs::MetricsRegistry registry;
  registry.counter("bad.name").Add(3);
  registry.counter("bad_name").Add(2);  // Same metric after sanitizing.
  std::ostringstream os;
  registry.WritePrometheus(os);
  const std::string out = os.str();
  EXPECT_EQ(out.find("bad.name"), std::string::npos);
  EXPECT_NE(out.find("bad_name 5"), std::string::npos);
}

TEST(MetricsNameTest, HelpFirstRegistrationWins) {
  obs::MetricsRegistry registry;
  registry.counter("slides_total", "Slides executed.").Add(1);
  registry.counter("slides_total", "A different docstring.");
  registry.gauge("depth");  // No help registered.
  std::ostringstream os;
  registry.WritePrometheus(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("# HELP slides_total Slides executed.\n"),
            std::string::npos);
  EXPECT_EQ(out.find("A different docstring"), std::string::npos);
  EXPECT_NE(out.find("# HELP depth (no help registered)\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// HTTP surface
// ---------------------------------------------------------------------------

TEST(HttpServerTest, EphemeralBindServesMetricsRoutes) {
  obs::MetricsRegistry registry;
  registry.counter("requests_total", "Requests.").Add(42);
  registry.gauge("depth").Set(3.5);

  obs::HttpServerOptions options;
  options.metrics = &registry;
  obs::HttpServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  int status = 0;
  const std::string prom = obs::HttpGet(server.port(), "/metrics", &status);
  EXPECT_EQ(status, 200);
  std::ostringstream expected;
  registry.WritePrometheus(expected);
  EXPECT_EQ(prom, expected.str());

  const std::string json =
      obs::HttpGet(server.port(), "/metrics.json", &status);
  EXPECT_EQ(status, 200);
  std::ostringstream expected_json;
  registry.WriteJson(expected_json);
  EXPECT_EQ(json, expected_json.str());

  const std::string missing = obs::HttpGet(server.port(), "/nope", &status);
  EXPECT_EQ(status, 404);
  EXPECT_NE(missing.find("unknown route"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
}

TEST(HttpServerTest, TwoServersBindDistinctEphemeralPorts) {
  obs::MetricsRegistry registry;
  obs::HttpServerOptions options;
  options.metrics = &registry;
  obs::HttpServer a(options), b(options);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  EXPECT_NE(a.port(), b.port());
  // A fixed taken port must fail with a descriptive status.
  obs::HttpServerOptions taken = options;
  taken.port = a.port();
  obs::HttpServer c(taken);
  const Status bind = c.Start();
  EXPECT_FALSE(bind.ok());
  EXPECT_NE(bind.message().find("cannot bind"), std::string::npos);
}

TEST(HttpServerTest, RejectsMalformedOversizedAndNonGet) {
  obs::MetricsRegistry registry;
  obs::HttpServerOptions options;
  options.metrics = &registry;
  options.max_request_bytes = 512;
  obs::HttpServer server(options);
  ASSERT_TRUE(server.Start().ok());

  EXPECT_EQ(SendRaw(server.port(), "GARBAGE\r\n\r\n"), 400);
  EXPECT_EQ(SendRaw(server.port(), "GET  HTTP/1.1\r\n\r\n"), 400);
  EXPECT_EQ(SendRaw(server.port(), "GET /metrics FTP/9\r\n\r\n"), 400);
  EXPECT_EQ(SendRaw(server.port(),
                    "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            405);
  const std::string oversized =
      "GET /metrics HTTP/1.1\r\nX-Pad: " + std::string(4096, 'a') +
      "\r\n\r\n";
  EXPECT_EQ(SendRaw(server.port(), oversized), 431);
  // The server must still answer normal requests afterwards.
  int status = 0;
  obs::HttpGet(server.port(), "/metrics", &status);
  EXPECT_EQ(status, 200);
}

TEST(HttpServerTest, HealthzReflectsComponentReadiness) {
  // No registry bound: alive but not ready.
  obs::HttpServer bare{obs::HttpServerOptions{}};
  ASSERT_TRUE(bare.Start().ok());
  int status = 0;
  std::string body = obs::HttpGet(bare.port(), "/healthz", &status);
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"live\":true"), std::string::npos);
  EXPECT_NE(body.find("\"ready\":false"), std::string::npos);
  EXPECT_NE(body.find("\"metrics\":\"unbound\""), std::string::npos);
  bare.Stop();

  // Registry bound, no engine: ready.
  obs::MetricsRegistry registry;
  obs::HttpServerOptions options;
  options.metrics = &registry;
  obs::HttpServer server(options);
  ASSERT_TRUE(server.Start().ok());
  body = obs::HttpGet(server.port(), "/healthz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"ready\":true"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, HealthzFlipsWhenLastSessionCloses) {
  obs::MetricsRegistry registry;
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.metrics = &registry;
  DiscEngine engine(engine_options);

  std::uint16_t port = 0;
  ASSERT_TRUE(engine.ServeTelemetry(0, &port).ok());
  ASSERT_NE(port, 0);
  EXPECT_EQ(engine.TelemetryPort(), port);

  // Engine bound but empty: not ready.
  int status = 0;
  std::string body = obs::HttpGet(port, "/healthz", &status);
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"engine\":\"no_sessions\""), std::string::npos);

  ASSERT_TRUE(engine.CreateSession("alpha", TestSession()).ok());
  body = obs::HttpGet(port, "/healthz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"engine\":\"ok\""), std::string::npos);

  ASSERT_TRUE(engine.CloseSession("alpha").ok());
  body = obs::HttpGet(port, "/healthz", &status);
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"ready\":false"), std::string::npos);

  engine.StopTelemetry();
  EXPECT_EQ(engine.TelemetryPort(), 0);
  engine.StopTelemetry();  // Idempotent.
}

TEST(HttpServerTest, ServeTelemetryRefusesDoubleServe) {
  obs::MetricsRegistry registry;
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.metrics = &registry;
  DiscEngine engine(engine_options);
  std::uint16_t port = 0;
  ASSERT_TRUE(engine.ServeTelemetry(0, &port).ok());
  const Status again = engine.ServeTelemetry(0);
  EXPECT_FALSE(again.ok());
  EXPECT_NE(again.message().find("already serving"), std::string::npos);
  // Destructor stops the server; nothing to clean up explicitly.
}

TEST(HttpServerTest, SessionsRouteReportsLiveRows) {
  obs::MetricsRegistry registry;
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.metrics = &registry;
  DiscEngine engine(engine_options);
  ASSERT_TRUE(engine.CreateSession("alpha", TestSession()).ok());
  ASSERT_TRUE(engine.CreateSession("beta", TestSession()).ok());

  const auto slides = MakeSlides(11, 3);
  for (const auto& slide : slides) {
    ASSERT_TRUE(engine.FeedSlide("alpha", slide).ok());
  }
  engine.Drain();

  std::uint16_t port = 0;
  ASSERT_TRUE(engine.ServeTelemetry(0, &port).ok());
  int status = 0;
  const std::string body = obs::HttpGet(port, "/sessions", &status);
  EXPECT_EQ(status, 200);
  // Creation order, with live progress: alpha ran 3 slides, beta is 3
  // behind the watermark.
  const std::size_t alpha = body.find("\"name\":\"alpha\"");
  const std::size_t beta = body.find("\"name\":\"beta\"");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(beta, std::string::npos);
  EXPECT_LT(alpha, beta);
  EXPECT_NE(body.find("\"slides_run\":3"), std::string::npos);
  EXPECT_NE(body.find("\"watermark_lag_slides\":3"), std::string::npos);
  EXPECT_EQ(body.find("\"method\""), std::string::npos);
  EXPECT_NE(body.find("\"window_size\":180"), std::string::npos);
}

TEST(HttpServerTest, TracezServesCompletedPhaseSpans) {
  obs::TraceRecorder::Options trace_options;
  trace_options.logical_time = true;
  obs::TraceRecorder recorder(trace_options);
  recorder.Install();

  obs::MetricsRegistry registry;
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.metrics = &registry;
  DiscEngine engine(engine_options);
  ASSERT_TRUE(engine.CreateSession("alpha", TestSession()).ok());
  const auto slides = MakeSlides(12, 2);
  for (const auto& slide : slides) {
    ASSERT_TRUE(engine.FeedSlide("alpha", slide).ok());
  }
  engine.Drain();

  std::uint16_t port = 0;
  ASSERT_TRUE(engine.ServeTelemetry(0, &port).ok());
  int status = 0;
  const std::string body = obs::HttpGet(port, "/tracez", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"name\":\"engine.session\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"engine.drain\""), std::string::npos);
  EXPECT_NE(body.find("\"dur_us\":"), std::string::npos);
  recorder.Uninstall();
}

TEST(HttpServerTest, ConcurrentScrapesOfQuiescedEngineAreByteIdentical) {
  // The deterministic subset (`_ms` families filtered like the lane-count
  // test) must also match across 1 and 4 lanes.
  auto run = [](std::uint32_t lanes, std::string* deterministic_subset) {
    obs::MetricsRegistry registry;
    EngineOptions engine_options;
    engine_options.num_threads = lanes;
    engine_options.metrics = &registry;
    DiscEngine engine(engine_options);
    ASSERT_TRUE(engine.CreateSession("alpha", TestSession()).ok());
    ASSERT_TRUE(engine.CreateSession("beta", TestSession()).ok());
    const auto a = MakeSlides(21, 4);
    const auto b = MakeSlides(22, 4);
    for (std::size_t k = 0; k < a.size(); ++k) {
      ASSERT_TRUE(engine.FeedSlide("alpha", a[k]).ok());
      ASSERT_TRUE(engine.FeedSlide("beta", b[k]).ok());
      engine.Drain();
    }
    std::uint16_t port = 0;
    ASSERT_TRUE(engine.ServeTelemetry(0, &port).ok());

    // Quiesced engine: concurrent scrapes must come back byte-identical.
    constexpr int kScrapers = 8;
    std::vector<std::string> bodies(kScrapers);
    std::vector<std::thread> scrapers;
    scrapers.reserve(kScrapers);
    for (int i = 0; i < kScrapers; ++i) {
      scrapers.emplace_back([port, &bodies, i]() {
        int status = 0;
        bodies[static_cast<std::size_t>(i)] =
            obs::HttpGet(port, "/metrics", &status);
        EXPECT_EQ(status, 200);
      });
    }
    for (std::thread& t : scrapers) t.join();
    for (int i = 1; i < kScrapers; ++i) {
      EXPECT_EQ(bodies[static_cast<std::size_t>(i)], bodies[0])
          << "scrape " << i << " diverged at " << lanes << " lanes";
    }

    std::istringstream lines(bodies[0]);
    std::string line;
    deterministic_subset->clear();
    while (std::getline(lines, line)) {
      if (line.find("_ms ") != std::string::npos ||
          line.find("_ms{") != std::string::npos ||
          line.find("_ms_") != std::string::npos) {
        continue;
      }
      *deterministic_subset += line;
      *deterministic_subset += '\n';
    }
  };

  std::string single, four;
  run(1, &single);
  run(4, &four);
  EXPECT_FALSE(single.empty());
  EXPECT_EQ(single, four);
}

TEST(HttpServerTest, ScrapingWhileFeedingIsRaceFree) {
  // TSan exercise: live scrapes race metric folds and session feeds. No
  // byte comparison here — the point is that relaxed-atomic metrics and
  // the locked session table keep the server data-race-free mid-stream.
  obs::MetricsRegistry registry;
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.metrics = &registry;
  DiscEngine engine(engine_options);
  ASSERT_TRUE(engine.CreateSession("alpha", TestSession()).ok());
  std::uint16_t port = 0;
  ASSERT_TRUE(engine.ServeTelemetry(0, &port).ok());

  std::atomic<bool> done{false};
  std::vector<std::thread> scrapers;
  for (int i = 0; i < 2; ++i) {
    scrapers.emplace_back([port, &done]() {
      const char* routes[] = {"/metrics", "/metrics.json", "/sessions",
                              "/healthz"};
      int k = 0;
      while (!done.load(std::memory_order_acquire)) {
        int status = 0;
        obs::HttpGet(port, routes[k % 4], &status);
        EXPECT_EQ(status, 200);
        ++k;
      }
    });
  }

  const auto slides = MakeSlides(31, 6);
  for (const auto& slide : slides) {
    ASSERT_TRUE(engine.FeedSlide("alpha", slide).ok());
    engine.Drain();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : scrapers) t.join();
  engine.StopTelemetry();
}

TEST(HttpServerTest, StopIsCleanUnderRequestLoad) {
  obs::MetricsRegistry registry;
  obs::HttpServerOptions options;
  options.metrics = &registry;
  obs::HttpServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();

  std::vector<std::thread> hammers;
  for (int i = 0; i < 3; ++i) {
    hammers.emplace_back([port]() {
      for (int k = 0; k < 50; ++k) {
        int status = 0;
        obs::HttpGet(port, "/metrics", &status);
        // 200 while up; transport failure (0) once Stop lands. Both fine —
        // the assertion is that nothing hangs, crashes, or races.
        if (status == 0) break;
      }
    });
  }
  server.Stop();
  for (std::thread& t : hammers) t.join();
  EXPECT_FALSE(server.running());
  server.Stop();  // Idempotent.
}

}  // namespace
}  // namespace disc
