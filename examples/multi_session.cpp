// Multi-session engine: host several independent streams on one shared
// pool, checkpoint all of them, kill the engine, and recover — the DISC
// answer to "one clusterer process per stream doesn't scale".
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/multi_session
//
// Optional observability + recovery artifacts (docs/OBSERVABILITY.md):
//   ./build/examples/multi_session [--serve PORT]
//       [TRACE.json [METRICS.prom [SPILL_DIR]]]
// writes a Chrome trace with the engine.drain / engine.session scheduling
// spans, a Prometheus text dump with the per-session engine_session_<name>_*
// metrics, and — when SPILL_DIR is given — demonstrates Checkpoint() +
// DiscEngine::Open() recovery through that directory. scripts/ci.sh runs
// this with all three and validates the trace with tools/trace_check.py.
//
// --serve PORT starts DiscEngine::ServeTelemetry (PORT 0 = ephemeral; the
// bound port is printed as "serving telemetry on port N") and holds the
// process open on stdin after the run so /metrics, /sessions, /healthz
// can be scraped against a live engine.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "engine/disc_engine.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "stream/blobs_generator.h"

namespace {

// Three tenant streams with different shapes: a drifting city, a stable
// sensor field, a sparse noisy feed. Each gets its own session (and its own
// eps/tau) but they all share the engine's pool.
struct Tenant {
  std::string name;
  std::uint64_t seed;
  double eps;
  std::uint32_t tau;
  double drift;
};

const Tenant kTenants[] = {
    {"city_vehicles", 11, 0.35, 6, 0.06},
    {"sensor_field", 22, 0.45, 5, 0.0},
    {"sparse_feed", 33, 0.55, 4, 0.03},
};

constexpr std::size_t kWindow = 1200;
constexpr std::size_t kStride = 200;

std::unique_ptr<disc::BlobsGenerator> MakeStream(const Tenant& tenant) {
  disc::BlobsGenerator::Options o;
  o.dims = 2;
  o.num_blobs = 4;
  o.stddev = 0.3;
  o.noise_fraction = 0.1;
  o.drift = tenant.drift;
  o.seed = tenant.seed;
  return std::make_unique<disc::BlobsGenerator>(o);
}

void FeedAll(disc::DiscEngine& engine,
             std::vector<std::unique_ptr<disc::BlobsGenerator>>& streams,
             std::size_t slides) {
  for (std::size_t k = 0; k < slides; ++k) {
    for (std::size_t t = 0; t < streams.size(); ++t) {
      const disc::Status fed =
          engine.FeedSlide(kTenants[t].name, streams[t]->NextPoints(kStride));
      if (!fed.ok()) {
        std::fprintf(stderr, "feed failed: %s\n", fed.message().c_str());
        std::exit(1);
      }
    }
    engine.Drain();
  }
}

void PrintSessions(disc::DiscEngine& engine, const char* label) {
  std::printf("%s\n", label);
  for (const std::string& name : engine.SessionNames()) {
    const disc::ClusteringSnapshot snap = engine.Clusterer(name)->Snapshot();
    std::printf("  %-14s %4zu slides, %4zu points, %2zu clusters\n",
                name.c_str(), engine.SlidesRun(name), snap.size(),
                snap.NumClusters());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool serve = false;
  std::uint16_t serve_port = 0;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve" && i + 1 < argc) {
      serve = true;
      serve_port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else {
      positional.push_back(argv[i]);
    }
  }
  const char* trace_path = positional.size() > 0 ? positional[0] : nullptr;
  const char* prom_path = positional.size() > 1 ? positional[1] : nullptr;

  disc::obs::TraceRecorder recorder;
  if (trace_path != nullptr || serve) recorder.Install();

  disc::obs::MetricsRegistry registry;
  disc::EngineOptions options;
  options.num_threads = 4;
  options.metrics = &registry;
  if (positional.size() > 2) options.spill_dir = positional[2];

  // Serve the given engine's telemetry plane and hold the process open on
  // stdin so a scraper (curl, tools/disc_top.py, the CI smoke) can reach
  // /metrics, /sessions, /healthz, /tracez against a live engine.
  const auto serve_and_wait = [serve, serve_port](disc::DiscEngine& engine) {
    if (!serve) return;
    std::uint16_t port = 0;
    const disc::Status started = engine.ServeTelemetry(serve_port, &port);
    if (!started.ok()) {
      std::fprintf(stderr, "telemetry: %s\n", started.message().c_str());
      std::exit(1);
    }
    std::printf("serving telemetry on port %u\n",
                static_cast<unsigned>(port));
    std::printf("telemetry up; press Enter (or close stdin) to exit\n");
    std::fflush(stdout);
    std::string line;
    std::getline(std::cin, line);
    engine.StopTelemetry();
  };

  std::vector<std::unique_ptr<disc::BlobsGenerator>> streams;
  {
    disc::DiscEngine engine(options);
    for (const Tenant& tenant : kTenants) {
      disc::SessionOptions session;
      session.spec.dims = 2;
      session.spec.window_size = kWindow;
      session.spec.stride = kStride;
      session.spec.disc.eps = tenant.eps;
      session.spec.disc.tau = tenant.tau;
      const disc::Status created = engine.CreateSession(tenant.name, session);
      if (!created.ok()) {
        std::fprintf(stderr, "admission failed: %s\n",
                     created.message().c_str());
        return 1;
      }
      streams.push_back(MakeStream(tenant));
    }

    FeedAll(engine, streams, 10);
    PrintSessions(engine, "after 10 shared slides:");

    if (!options.spill_dir.empty()) {
      const disc::Status saved = engine.Checkpoint();
      if (!saved.ok()) {
        std::fprintf(stderr, "checkpoint failed: %s\n",
                     saved.message().c_str());
        return 1;
      }
      std::printf("\ncheckpointed %zu sessions to %s; killing the engine\n",
                  engine.session_count(), options.spill_dir.c_str());
    }
    // Engine destroyed here — with a spill dir that's the simulated kill;
    // without one it's just the end of the run.
    if (options.spill_dir.empty()) {
      FeedAll(engine, streams, 5);
      PrintSessions(engine, "after 15 shared slides:");
      serve_and_wait(engine);
    }
  }

  if (!options.spill_dir.empty()) {
    disc::Status error;
    std::unique_ptr<disc::DiscEngine> engine =
        disc::DiscEngine::Open(options, &error);
    if (engine == nullptr) {
      std::fprintf(stderr, "recovery failed: %s\n", error.message().c_str());
      return 1;
    }
    PrintSessions(*engine, "\nrecovered sessions (state + numbering intact):");
    FeedAll(*engine, streams, 5);
    PrintSessions(*engine, "after 5 more slides on the recovered engine:");
    serve_and_wait(*engine);
  }

  std::printf("\nengine totals: %llu slides across %llu drains\n",
              static_cast<unsigned long long>(
                  registry.counter("engine_slides_total").value()),
              static_cast<unsigned long long>(
                  registry.counter("engine_drains_total").value()));

  if (trace_path != nullptr) {
    recorder.Uninstall();
    std::ofstream trace(trace_path);
    recorder.WriteChromeJson(trace);
    std::printf("wrote trace (%zu events) to %s\n", recorder.event_count(),
                trace_path);
  }
  if (prom_path != nullptr) {
    std::ofstream prom(prom_path);
    registry.WritePrometheus(prom);
    std::printf("wrote Prometheus metrics to %s\n", prom_path);
  }
  return 0;
}
