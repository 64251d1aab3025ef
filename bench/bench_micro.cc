// Micro-benchmarks (google-benchmark) for the substrate data structures and
// the DISC-specific mechanisms: R-tree ops, epoch-probed vs plain searches,
// MS-BFS vs sequential connectivity checks, registry operations, and
// per-slide DISC updates on the dataset analogues.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "baselines/graph_disc.h"
#include "baselines/inc_dbscan.h"
#include "bench/datasets.h"
#include "core/cluster_registry.h"
#include "core/disc.h"
#include "core/pipeline.h"
#include "eval/runner.h"
#include "index/grid_index.h"
#include "index/rtree.h"
#include "obs/http_server.h"
#include "obs/log.h"
#include "obs/metrics_registry.h"
#include "obs/sinks.h"
#include "stream/blobs_generator.h"
#include "stream/sliding_window.h"

namespace disc {
namespace {

std::vector<Point> RandomPoints(std::size_t n, std::uint32_t dims,
                                double extent, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Point p;
    p.id = i;
    p.dims = dims;
    for (std::uint32_t d = 0; d < dims; ++d) p.x[d] = rng.Uniform(0.0, extent);
    pts.push_back(p);
  }
  return pts;
}

void BM_RTreeInsert(benchmark::State& state) {
  const auto pts = RandomPoints(static_cast<std::size_t>(state.range(0)), 2,
                                100.0, 1);
  for (auto _ : state) {
    RTree tree(2);
    for (const Point& p : pts) tree.Insert(p);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeInsert)->Arg(1000)->Arg(10000);

void BM_RTreeDelete(benchmark::State& state) {
  const auto pts = RandomPoints(static_cast<std::size_t>(state.range(0)), 2,
                                100.0, 2);
  for (auto _ : state) {
    state.PauseTiming();
    RTree tree(2);
    for (const Point& p : pts) tree.Insert(p);
    state.ResumeTiming();
    for (const Point& p : pts) tree.Delete(p);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeDelete)->Arg(1000)->Arg(10000);

void BM_RTreeRangeSearch(benchmark::State& state) {
  const auto pts = RandomPoints(20000, 2, 100.0, 3);
  RTree tree(2);
  for (const Point& p : pts) tree.Insert(p);
  const double eps = static_cast<double>(state.range(0)) / 10.0;
  Rng rng(4);
  std::size_t found = 0;
  for (auto _ : state) {
    Point c;
    c.dims = 2;
    c.x[0] = rng.Uniform(0.0, 100.0);
    c.x[1] = rng.Uniform(0.0, 100.0);
    tree.RangeSearch(c, eps, [&](PointId, const Point&) { ++found; });
  }
  benchmark::DoNotOptimize(found);
}
BENCHMARK(BM_RTreeRangeSearch)->Arg(5)->Arg(20)->Arg(80);

void BM_GridRangeSearch(benchmark::State& state) {
  const auto pts = RandomPoints(20000, 2, 100.0, 3);
  const double eps = static_cast<double>(state.range(0)) / 10.0;
  GridIndex grid(2, eps);
  for (const Point& p : pts) grid.Insert(p);
  Rng rng(4);
  std::size_t found = 0;
  for (auto _ : state) {
    Point c;
    c.dims = 2;
    c.x[0] = rng.Uniform(0.0, 100.0);
    c.x[1] = rng.Uniform(0.0, 100.0);
    grid.RangeSearch(c, eps, [&](PointId, const Point&) { ++found; });
  }
  benchmark::DoNotOptimize(found);
}
BENCHMARK(BM_GridRangeSearch)->Arg(5)->Arg(20)->Arg(80);

// Repeatedly sweep one dense region: with epoch probing under a single tick
// the region is consumed once and later sweeps prune at internal entries.
void BM_EpochVsPlainRepeatedSearch(benchmark::State& state) {
  const bool use_epoch = state.range(0) != 0;
  const auto pts = RandomPoints(20000, 2, 100.0, 5);
  RTree tree(2);
  for (const Point& p : pts) tree.Insert(p);
  Rng rng(6);
  for (auto _ : state) {
    const std::uint64_t tick = tree.NewTick();
    Point c;
    c.dims = 2;
    c.x[0] = 50.0;
    c.x[1] = 50.0;
    std::size_t total = 0;
    for (int rep = 0; rep < 32; ++rep) {
      c.x[0] = 45.0 + rng.Uniform(0.0, 10.0);
      c.x[1] = 45.0 + rng.Uniform(0.0, 10.0);
      if (use_epoch) {
        tree.EpochRangeSearch(c, 8.0, tick, [&](PointId, const Point&) {
          ++total;
          return true;
        });
      } else {
        tree.RangeSearch(c, 8.0, [&](PointId, const Point&) { ++total; });
      }
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_EpochVsPlainRepeatedSearch)->Arg(0)->Arg(1);

void BM_ClusterRegistryUnionFind(benchmark::State& state) {
  for (auto _ : state) {
    ClusterRegistry reg;
    std::vector<ClusterId> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i) handles.push_back(reg.NewCluster());
    for (int i = 1; i < 10000; ++i) reg.Union(handles[i - 1], handles[i]);
    ClusterId sink = 0;
    for (int i = 0; i < 10000; ++i) sink ^= reg.Find(handles[i]);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 30000);
}
BENCHMARK(BM_ClusterRegistryUnionFind);

// Whole-slide DISC update on a dataset analogue (5% stride, steady state).
void BM_DiscSlide(benchmark::State& state) {
  const auto specs = bench::StandardDatasets(0.5);
  const bench::DatasetSpec& spec = specs[static_cast<std::size_t>(
      state.range(0))];
  const std::size_t stride = std::max<std::size_t>(1, spec.window / 20);
  auto source = spec.make(1234);
  DiscConfig config;
  config.eps = spec.eps;
  config.tau = spec.tau;
  Disc method(spec.dims, config);
  CountBasedWindow window(spec.window, stride);
  // Fill.
  while (!window.full()) {
    WindowDelta d = window.Advance(source->NextPoints(stride));
    method.Update(d.incoming, d.outgoing);
  }
  for (auto _ : state) {
    WindowDelta d = window.Advance(source->NextPoints(stride));
    method.Update(d.incoming, d.outgoing);
  }
  state.SetItemsProcessed(state.iterations() * stride);
  state.SetLabel(spec.name);
}
BENCHMARK(BM_DiscSlide)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// COLLECT scaling across worker-thread counts on a 100k-point window (5%
// stride). Manual time is the COLLECT phase only, straight from the metrics,
// so the sequential CLUSTER phases do not dilute the comparison
// (bench/results/threads_scaling.md).
void BM_DiscCollectThreads(benchmark::State& state) {
  constexpr std::size_t kWindow = 100000;
  constexpr std::size_t kStride = 5000;
  BlobsGenerator::Options o;
  o.num_blobs = 24;
  o.stddev = 0.35;
  o.drift = 0.03;
  o.seed = 29;
  BlobsGenerator source(o);
  DiscConfig config;
  config.eps = 0.25;
  config.tau = 5;
  config.num_threads = static_cast<std::uint32_t>(state.range(0));
  Disc method(2, config);
  CountBasedWindow window(kWindow, kStride);
  while (!window.full()) {
    WindowDelta d = window.Advance(source.NextPoints(kStride));
    method.Update(d.incoming, d.outgoing);
  }
  double collect_total_ms = 0.0;
  double parallel_total_ms = 0.0;
  for (auto _ : state) {
    WindowDelta d = window.Advance(source.NextPoints(kStride));
    method.Update(d.incoming, d.outgoing);
    const double ms = method.last_metrics().collect_ms;
    collect_total_ms += ms;
    parallel_total_ms += method.last_metrics().collect_parallel_ms;
    state.SetIterationTime(ms / 1000.0);
  }
  state.SetItemsProcessed(state.iterations() * kStride);
  state.counters["collect_ms"] =
      collect_total_ms / static_cast<double>(state.iterations());
  state.counters["collect_parallel_ms"] =
      parallel_total_ms / static_cast<double>(state.iterations());
  state.counters["threads"] = static_cast<double>(
      method.last_metrics().threads_used);
}
BENCHMARK(BM_DiscCollectThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseManualTime();

// MS-BFS vs sequential split check: drifting blobs generate frequent
// ex-core groups; this measures the full update with each strategy.
void BM_SplitCheckStrategy(benchmark::State& state) {
  const bool use_msbfs = state.range(0) != 0;
  BlobsGenerator::Options o;
  o.num_blobs = 6;
  o.stddev = 0.3;
  o.drift = 0.05;
  o.seed = 17;
  BlobsGenerator source(o);
  DiscConfig config;
  config.eps = 0.4;
  config.tau = 5;
  config.use_msbfs = use_msbfs;
  Disc method(2, config);
  CountBasedWindow window(4000, 200);
  while (!window.full()) {
    WindowDelta d = window.Advance(source.NextPoints(200));
    method.Update(d.incoming, d.outgoing);
  }
  for (auto _ : state) {
    WindowDelta d = window.Advance(source.NextPoints(200));
    method.Update(d.incoming, d.outgoing);
  }
  state.SetLabel(use_msbfs ? "ms-bfs" : "sequential");
}
BENCHMARK(BM_SplitCheckStrategy)->Arg(0)->Arg(1);


void BM_RTreeBulkLoad(benchmark::State& state) {
  const auto pts = RandomPoints(static_cast<std::size_t>(state.range(0)), 2,
                                100.0, 13);
  for (auto _ : state) {
    RTree tree(2);
    std::vector<Point> copy = pts;
    tree.BulkLoad(std::move(copy));
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(10000)->Arg(100000);

void BM_RTreeKnn(benchmark::State& state) {
  const auto pts = RandomPoints(50000, 2, 100.0, 14);
  RTree tree(2);
  tree.BulkLoad(pts);
  Rng rng(15);
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Point c;
    c.dims = 2;
    c.x[0] = rng.Uniform(0.0, 100.0);
    c.x[1] = rng.Uniform(0.0, 100.0);
    benchmark::DoNotOptimize(tree.NearestNeighbors(c, k));
  }
}
BENCHMARK(BM_RTreeKnn)->Arg(1)->Arg(8)->Arg(64);

void BM_SplitPolicyRangeSearch(benchmark::State& state) {
  const SplitPolicy policy = state.range(0) != 0 ? SplitPolicy::kRStar
                                                 : SplitPolicy::kQuadratic;
  Rng build_rng(16);
  RTree tree(2, 16, policy);
  for (PointId id = 0; id < 30000; ++id) {
    Point p;
    p.id = id;
    p.dims = 2;
    const double cx = 3.0 * static_cast<double>(build_rng.UniformInt(0, 9));
    p.x[0] = cx + build_rng.Normal(0.0, 0.2);
    p.x[1] = cx + build_rng.Normal(0.0, 0.2);
    tree.Insert(p);
  }
  Rng rng(17);
  std::size_t found = 0;
  for (auto _ : state) {
    Point c;
    c.dims = 2;
    c.x[0] = rng.Uniform(0.0, 28.0);
    c.x[1] = rng.Uniform(0.0, 28.0);
    tree.RangeSearch(c, 0.5, [&](PointId, const Point&) { ++found; });
  }
  benchmark::DoNotOptimize(found);
  state.SetLabel(policy == SplitPolicy::kRStar ? "r-star" : "quadratic");
}
BENCHMARK(BM_SplitPolicyRangeSearch)->Arg(0)->Arg(1);

void BM_DiscCheckpointRoundTrip(benchmark::State& state) {
  BlobsGenerator::Options o;
  o.seed = 18;
  BlobsGenerator source(o);
  DiscConfig config;
  config.eps = 0.4;
  config.tau = 5;
  Disc method(2, config);
  method.Update(source.NextPoints(static_cast<std::size_t>(state.range(0))),
                {});
  for (auto _ : state) {
    std::stringstream buffer;
    const bool saved = method.SaveCheckpoint(buffer).ok();
    Disc restored(2, config);
    const bool loaded = restored.LoadCheckpoint(buffer).ok();
    benchmark::DoNotOptimize(saved);
    benchmark::DoNotOptimize(loaded);
    benchmark::DoNotOptimize(restored.window_size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DiscCheckpointRoundTrip)->Arg(5000)->Arg(20000);

// Index-probing DISC vs the materialized-graph variant on one slide.
void BM_GraphVsIndexSlide(benchmark::State& state) {
  const bool graph = state.range(0) != 0;
  auto spec = bench::DtgSpec(0.5);
  const std::size_t stride = spec.window / 20;
  auto source = spec.make(1234);
  DiscConfig config;
  config.eps = spec.eps;
  config.tau = spec.tau;
  std::unique_ptr<StreamClusterer> method;
  if (graph) {
    method = std::make_unique<GraphDisc>(spec.dims, config);
  } else {
    method = std::make_unique<Disc>(spec.dims, config);
  }
  CountBasedWindow window(spec.window, stride);
  while (!window.full()) {
    WindowDelta d = window.Advance(source->NextPoints(stride));
    method->Update(d.incoming, d.outgoing);
  }
  for (auto _ : state) {
    WindowDelta d = window.Advance(source->NextPoints(stride));
    method->Update(d.incoming, d.outgoing);
  }
  state.SetLabel(graph ? "graph" : "index");
}
BENCHMARK(BM_GraphVsIndexSlide)->Arg(0)->Arg(1);

// Cost of the telemetry plane on the hot slide path (docs/OBSERVABILITY.md,
// bench/results/telemetry_overhead.md). Arg selects the plane depth:
//   0  bare pipeline — no recorder, no registry
//   1  + MetricsObserver folding every SlideReport into a registry
//   2  + embedded HTTP server with a background thread scraping GET
//      /metrics at 10 Hz while the pipeline slides
// The registry's fields are relaxed atomics, so a scrape never takes a
// lock the slide path contends on — modes 1 and 2 should be within noise
// of each other (the acceptance bar is <= 2% over mode 1).
void BM_ObsScrapeOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  BlobsGenerator::Options gen;
  gen.dims = 2;
  gen.num_blobs = 5;
  gen.stddev = 0.3;
  gen.noise_fraction = 0.1;
  gen.drift = 0.05;
  gen.seed = 99;
  BlobsGenerator stream(gen);
  DiscConfig config;
  config.eps = 0.4;
  config.tau = 5;
  Disc method(2, config);
  StreamingPipeline pipeline(&stream, &method, /*window_size=*/2000,
                             /*stride=*/200);

  obs::MetricsRegistry registry;
  obs::MetricsObserver::Options obs_options;
  obs_options.disc_metrics = &method.last_metrics();
  obs::MetricsObserver metrics(&registry, obs_options);

  obs::HttpServerOptions server_options;
  server_options.metrics = &registry;
  obs::HttpServer server(server_options);
  std::atomic<bool> stop{false};
  std::thread scraper;
  if (mode == 2) {
    // The server's start/stop info lines would interleave with the
    // benchmark table on stderr.
    obs::SetLogLevel(obs::LogLevel::kWarn);
    if (!server.Start().ok()) {
      state.SkipWithError("telemetry server failed to bind");
      return;
    }
    scraper = std::thread([&server, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        int status = 0;
        std::string body = obs::HttpGet(server.port(), "/metrics", &status);
        benchmark::DoNotOptimize(body.size());
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }

  pipeline.Run(10);  // fill the window before timing
  for (auto _ : state) {
    pipeline.Run(1, mode >= 1 ? metrics.AsObserver() : nullptr);
  }
  state.SetItemsProcessed(state.iterations() * 200);
  state.SetLabel(mode == 0   ? "bare"
                 : mode == 1 ? "recorder"
                             : "recorder+scrape10hz");

  if (mode == 2) {
    stop.store(true, std::memory_order_relaxed);
    scraper.join();
    server.Stop();
  }
}
BENCHMARK(BM_ObsScrapeOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace disc

BENCHMARK_MAIN();
