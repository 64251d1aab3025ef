// Quickstart: cluster a small 2-D stream with DISC under a count-based
// sliding window and print what the clustering looks like after each slide.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Optional observability artifacts (docs/OBSERVABILITY.md):
//   ./build/examples/quickstart [--serve PORT] [TRACE.json [METRICS.jsonl]]
// writes a Chrome trace (open in chrome://tracing or ui.perfetto.dev) and a
// per-slide JSONL metrics stream. scripts/ci.sh runs this with both paths
// and validates the artifacts with tools/trace_check.py.
//
// --serve PORT starts the embedded telemetry server (PORT 0 = ephemeral;
// the bound port is printed as "serving telemetry on port N"). The process
// then waits for one line on stdin (or EOF) after the run so scrapers —
// curl, tools/disc_top.py, the CI smoke — can hit /metrics, /healthz,
// /tracez while the process is alive.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/disc.h"
#include "core/pipeline.h"
#include "obs/http_server.h"
#include "obs/metrics_registry.h"
#include "obs/sinks.h"
#include "obs/trace.h"
#include "stream/blobs_generator.h"

int main(int argc, char** argv) {
  // --serve PORT is position-independent; the remaining args keep their
  // positional meaning [TRACE.json [METRICS.jsonl]].
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
  const char* jsonl_path = positional.size() > 1 ? positional[1] : nullptr;
  // A stream of points drawn from five drifting Gaussian blobs plus 10%
  // noise. The drift makes blobs wander apart and back together, so slides
  // regularly split and merge clusters — exercising the MS-BFS split checks
  // and neo-core discovery that the trace below records.
  disc::BlobsGenerator::Options gen_options;
  gen_options.dims = 2;
  gen_options.num_blobs = 5;
  gen_options.stddev = 0.3;
  gen_options.noise_fraction = 0.1;
  gen_options.drift = 0.05;
  disc::BlobsGenerator stream(gen_options);

  // DISC with DBSCAN thresholds eps=0.4, tau=5: a point is a core when at
  // least 5 points (itself included) lie within distance 0.4. Two pool
  // lanes fan out the COLLECT probes (CLUSTER runs on the calling thread);
  // results are bit-identical for any num_threads.
  disc::DiscConfig config;
  config.eps = 0.4;
  config.tau = 5;
  config.num_threads = 2;
  disc::Disc clusterer(/*dims=*/2, config);

  // Tracing is dormant until a recorder is installed; with a path on the
  // command line every Update phase (and each index probe, at kDetail)
  // becomes a span in the written trace.
  disc::obs::TraceRecorder::Options trace_options;
  trace_options.level = disc::obs::TraceLevel::kDetail;
  disc::obs::TraceRecorder recorder(trace_options);
  if (trace_path != nullptr || serve) recorder.Install();

  std::ofstream jsonl;
  if (jsonl_path != nullptr) jsonl.open(jsonl_path);

  // Fold every SlideReport into a metrics registry (counters, gauges,
  // latency histograms) and — when requested — the JSONL stream. This is
  // the one-line wiring every pipeline gets telemetry with.
  disc::obs::MetricsRegistry registry;
  disc::obs::MetricsObserver::Options obs_options;
  obs_options.disc_metrics = &clusterer.last_metrics();
  if (jsonl.is_open()) obs_options.jsonl = &jsonl;
  disc::obs::MetricsObserver metrics(&registry, obs_options);

  // The telemetry plane: /metrics, /metrics.json, /healthz, /tracez served
  // live while the pipeline below streams.
  disc::obs::HttpServerOptions server_options;
  server_options.port = serve_port;
  server_options.metrics = &registry;
  server_options.tracer = &recorder;
  disc::obs::HttpServer server(server_options);
  if (serve) {
    if (disc::Status started = server.Start(); !started.ok()) {
      std::fprintf(stderr, "telemetry: %s\n", started.message().c_str());
      return 1;
    }
    std::printf("serving telemetry on port %u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
  }

  // A window of 2000 points advancing 200 points at a time.
  disc::StreamingPipeline pipeline(&stream, &clusterer, /*window_size=*/2000,
                                   /*stride=*/200);
  pipeline.Run(20, [&](const disc::SlideReport& report) {
    const disc::ClusteringSnapshot snapshot = clusterer.Snapshot();
    std::size_t cores = 0, borders = 0, noise = 0;
    for (disc::Category c : snapshot.categories) {
      switch (c) {
        case disc::Category::kCore: ++cores; break;
        case disc::Category::kBorder: ++borders; break;
        case disc::Category::kNoise: ++noise; break;
      }
    }
    std::printf(
        "slide %2zu: %4zu points, %2zu clusters (%4zu cores, %3zu borders, "
        "%3zu noise), %4llu range searches\n",
        report.slide_index, snapshot.size(), snapshot.NumClusters(), cores,
        borders, noise,
        static_cast<unsigned long long>(report.probes.range_searches));
    return metrics(report);
  });

  // The registry aggregates the run: p50/p95/p99 slide latency and totals.
  std::printf("\nrun summary: %llu slides, update p50=%.3fms p99=%.3fms\n",
              static_cast<unsigned long long>(
                  registry.counter("disc_slides_total").value()),
              registry.histogram("disc_update_ms").Quantile(0.5),
              registry.histogram("disc_update_ms").Quantile(0.99));

  if (serve) {
    // Hold the endpoints open until the driver says stop (one stdin line,
    // or EOF): this is what lets `curl` and the CI smoke scrape a process
    // that has finished streaming but not exited.
    std::printf("telemetry up; press Enter (or close stdin) to exit\n");
    std::fflush(stdout);
    std::string line;
    std::getline(std::cin, line);
    server.Stop();
  }

  if (trace_path != nullptr) {
    recorder.Uninstall();
    std::ofstream trace(trace_path);
    recorder.WriteChromeJson(trace);
    std::printf("wrote trace (%zu events) to %s\n", recorder.event_count(),
                trace_path);
    if (jsonl_path != nullptr) {
      std::printf("wrote per-slide metrics to %s\n", jsonl_path);
    }
  }
  return 0;
}
