// Multi-session engine layer: per-session outputs must be byte-identical to
// standalone runs of the same streams regardless of how many sessions share
// the pool, checkpointed sessions must resume exactly where they left off
// (kill/recover equals uninterrupted), admission must reject bad sessions
// with descriptive Statuses, and the clusterer factory (which the figure
// benchmarks build their methods through) must cover every method key.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/disc.h"
#include "engine/disc_engine.h"
#include "eval/equivalence.h"
#include "gtest/gtest.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "stream/blobs_generator.h"
#include "stream/clusterer_factory.h"
#include "stream/sliding_window.h"

namespace disc {
namespace {

constexpr std::size_t kWindow = 240;
constexpr std::size_t kStride = 60;

// The state that survives a checkpoint/recover cycle: the id-sorted
// snapshot plus the full checkpoint bytes (window, densities, labels,
// cluster registry).
std::string PersistentDiscState(const Disc& disc) {
  std::ostringstream os;
  const ClusteringSnapshot snap = disc.Snapshot();
  for (std::size_t i = 0; i < snap.ids.size(); ++i) {
    os << snap.ids[i] << ':' << static_cast<int>(snap.categories[i]) << ':'
       << snap.cids[i] << ';';
  }
  std::ostringstream ckpt;
  EXPECT_TRUE(disc.SaveCheckpoint(ckpt).ok());
  os << '|' << ckpt.str();
  return os.str();
}

// Everything deterministic and observable about a Disc after an Update: the
// persistent state plus the evolution events and workload-deterministic
// metric counters of the most recent Update. Engine-hosted and standalone
// runs of the same stream must produce identical strings slide for slide.
std::string CanonicalDiscState(const Disc& disc) {
  std::ostringstream os;
  os << PersistentDiscState(disc) << '|';
  for (const ClusterEvent& ev : disc.last_events()) {
    os << static_cast<int>(ev.type) << '(';
    for (ClusterId cid : ev.cids) os << cid << ',';
    os << ')';
  }
  const DiscMetrics& m = disc.last_metrics();
  os << '|' << m.range_searches << ',' << m.collect_searches << ','
     << m.cluster_searches << ',' << m.num_ex_cores << ',' << m.num_neo_cores
     << ',' << m.num_ex_groups << ',' << m.num_neo_groups << ','
     << m.msbfs_expansions;
  return os.str();
}

const Disc& EngineDisc(DiscEngine& engine, const std::string& name) {
  const Disc* disc = engine.Clusterer(name);
  EXPECT_NE(disc, nullptr);
  return *disc;
}

DiscConfig TestConfig() {
  DiscConfig config;
  config.eps = 0.4;
  config.tau = 5;
  return config;
}

SessionOptions TestSession(std::uint64_t /*seed*/ = 0) {
  SessionOptions options;
  options.spec.dims = 2;
  options.spec.window_size = kWindow;
  options.spec.stride = kStride;
  options.spec.disc = TestConfig();
  return options;
}

// Pre-generated slides of one session's stream, so the engine run and the
// standalone reference consume the exact same points.
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

// Standalone reference: the same stream through a plain single-threaded
// Disc and window, canonical state captured after every slide.
std::vector<std::string> RunStandalone(
    const std::vector<std::vector<Point>>& slides) {
  Disc disc(2, TestConfig());
  CountBasedWindow window(kWindow, kStride);
  std::vector<std::string> per_slide;
  per_slide.reserve(slides.size());
  for (const std::vector<Point>& slide : slides) {
    WindowDelta delta = window.Advance(slide);
    disc.Update(delta.incoming, delta.outgoing);
    per_slide.push_back(CanonicalDiscState(disc));
  }
  return per_slide;
}

// Standalone reference for recovery runs: checkpoints into a fresh Disc at
// `restart_at` and reseeds the window from the restored contents — exactly
// what DiscEngine::Open does. (Byte-identity across the restart boundary is
// deliberately not part of Disc's contract: LoadCheckpoint bulk-loads the
// R-tree, so probe order — and with it cluster-id assignment — may differ
// from the incrementally built tree. The clustering stays DBSCAN-exact;
// integration_test pins that.)
std::vector<std::string> RunStandaloneWithRestart(
    const std::vector<std::vector<Point>>& slides, std::size_t restart_at) {
  auto disc = std::make_unique<Disc>(2, TestConfig());
  auto window = std::make_unique<CountBasedWindow>(kWindow, kStride);
  std::vector<std::string> per_slide;
  per_slide.reserve(slides.size());
  for (std::size_t k = 0; k < slides.size(); ++k) {
    if (k == restart_at) {
      std::stringstream buffer;
      EXPECT_TRUE(disc->SaveCheckpoint(buffer).ok());
      auto restored = std::make_unique<Disc>(2, TestConfig());
      EXPECT_TRUE(restored->LoadCheckpoint(buffer).ok());
      window = std::make_unique<CountBasedWindow>(kWindow, kStride,
                                                  restored->WindowContents());
      disc = std::move(restored);
    }
    WindowDelta delta = window->Advance(slides[k]);
    disc->Update(delta.incoming, delta.outgoing);
    per_slide.push_back(CanonicalDiscState(*disc));
  }
  return per_slide;
}

std::string SpillDir(const std::string& leaf) {
  const std::string dir = testing::TempDir() + "disc_engine_" + leaf;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Determinism: 8 sessions sharing a 4-lane pool == 8 standalone runs
// ---------------------------------------------------------------------------

TEST(EngineDeterminismTest, EightSessionsOnFourLanesMatchStandalone) {
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kSlides = 10;

  std::vector<std::vector<std::vector<Point>>> streams;
  std::vector<std::vector<std::string>> expected;
  for (std::size_t i = 0; i < kSessions; ++i) {
    streams.push_back(MakeSlides(100 + i, kSlides));
    expected.push_back(RunStandalone(streams.back()));
  }

  obs::MetricsRegistry registry;
  EngineOptions options;
  options.num_threads = 4;
  options.metrics = &registry;
  DiscEngine engine(options);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kSessions; ++i) {
    names.push_back("stream_" + std::to_string(i));
    ASSERT_TRUE(engine.CreateSession(names[i], TestSession()).ok());
  }

  // All sessions ready every round: the concurrent single-lane-per-session
  // scheduling path.
  for (std::size_t k = 0; k < kSlides; ++k) {
    for (std::size_t i = 0; i < kSessions; ++i) {
      ASSERT_TRUE(engine.FeedSlide(names[i], streams[i][k]).ok());
    }
    EXPECT_EQ(engine.Drain(), kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      ASSERT_EQ(CanonicalDiscState(EngineDisc(engine, names[i])),
                expected[i][k])
          << "session " << i << " diverged at slide " << k;
    }
  }

  // One session alone: it runs on the scheduler thread. Still identical.
  std::vector<std::vector<Point>> extra = MakeSlides(999, 3);
  std::vector<std::vector<Point>> full(streams[0]);
  full.insert(full.end(), extra.begin(), extra.end());
  const std::vector<std::string> expected_full = RunStandalone(full);
  for (std::size_t k = 0; k < extra.size(); ++k) {
    ASSERT_TRUE(engine.FeedSlide(names[0], extra[k]).ok());
    EXPECT_EQ(engine.Drain(), 1u);
    ASSERT_EQ(CanonicalDiscState(EngineDisc(engine, names[0])),
              expected_full[kSlides + k]);
  }

  EXPECT_EQ(engine.SlidesRun(names[0]), kSlides + extra.size());
  EXPECT_EQ(registry.counter("engine_session_stream_0_slides_total").value(),
            kSlides + extra.size());
  EXPECT_EQ(registry.counter("engine_session_stream_7_slides_total").value(),
            kSlides);
}

TEST(EngineDeterminismTest, MetricExportsIndependentOfLaneCount) {
  constexpr std::size_t kSessions = 3;
  constexpr std::size_t kSlides = 6;
  std::vector<std::vector<std::vector<Point>>> streams;
  for (std::size_t i = 0; i < kSessions; ++i) {
    streams.push_back(MakeSlides(40 + i, kSlides));
  }

  std::vector<std::string> names;
  for (std::size_t i = 0; i < kSessions; ++i) {
    // Built with += rather than `"s" + std::to_string(i)`: the rvalue
    // operator+ trips GCC 12's -Wrestrict false positive (PR105651) under
    // -Werror.
    std::string name = "s";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }

  auto run = [&streams, &names](std::uint32_t lanes) {
    obs::MetricsRegistry registry;
    EngineOptions options;
    options.num_threads = lanes;
    options.metrics = &registry;
    DiscEngine engine(options);
    for (std::size_t i = 0; i < kSessions; ++i) {
      EXPECT_TRUE(engine.CreateSession(names[i], TestSession()).ok());
    }
    for (std::size_t k = 0; k < kSlides; ++k) {
      for (std::size_t i = 0; i < kSessions; ++i) {
        EXPECT_TRUE(engine.FeedSlide(names[i], streams[i][k]).ok());
      }
      engine.Drain();
    }
    // The run-invariant subset: counters and gauges minus wall-clock
    // latency families (the `_ms` gauges joined the `_ms` histograms when
    // the backlog gauges landed), line-filtered like tools/prom_check.py's
    // --deterministic mode.
    std::ostringstream os;
    registry.WritePrometheus(os, /*include_histograms=*/false);
    std::istringstream lines(os.str());
    std::string filtered, line;
    while (std::getline(lines, line)) {
      if (line.find("_ms ") != std::string::npos ||
          line.find("_ms{") != std::string::npos) {
        continue;
      }
      filtered += line;
      filtered += '\n';
    }
    return filtered;
  };

  const std::string single = run(1);
  EXPECT_EQ(run(4), single);
  EXPECT_EQ(run(7), single);
}

TEST(EngineMetricsTest, BacklogGaugesExposeStalledSession) {
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.num_threads = 1;
  options.metrics = &registry;
  DiscEngine engine(options);
  ASSERT_TRUE(engine.CreateSession("fed", TestSession()).ok());
  ASSERT_TRUE(engine.CreateSession("stalled", TestSession()).ok());

  // Admission zeroes the backlog gauges for both sessions.
  EXPECT_EQ(registry.gauge("engine_session_fed_queue_depth").value(), 0.0);
  EXPECT_EQ(registry.gauge("engine_session_stalled_watermark_lag_slides")
                .value(),
            0.0);

  // Feed one session only. Before any drain its queue depth is the backlog
  // and both sessions trail the watermark (the fed session's frontier).
  const auto slides = MakeSlides(50, 3);
  for (const auto& slide : slides) {
    ASSERT_TRUE(engine.FeedSlide("fed", slide).ok());
  }
  EXPECT_EQ(registry.gauge("engine_session_fed_queue_depth").value(), 3.0);
  EXPECT_EQ(registry.gauge("engine_session_fed_watermark_lag_slides").value(),
            3.0);
  EXPECT_EQ(registry.gauge("engine_session_stalled_queue_depth").value(), 0.0);
  EXPECT_EQ(registry.gauge("engine_session_stalled_watermark_lag_slides")
                .value(),
            3.0);

  // After the drain the fed session catches up to the watermark; the
  // stalled session's lag persists — the dashboard signal for a stream
  // whose feeder died.
  EXPECT_EQ(engine.Drain(), 3u);
  EXPECT_EQ(registry.gauge("engine_session_fed_queue_depth").value(), 0.0);
  EXPECT_EQ(registry.gauge("engine_session_fed_watermark_lag_slides").value(),
            0.0);
  EXPECT_EQ(registry.gauge("engine_session_stalled_watermark_lag_slides")
                .value(),
            3.0);
  EXPECT_GT(registry.gauge("engine_session_fed_last_slide_ms").value(), 0.0);

  // Closing the stalled session removes the drag; gauges for the survivor
  // stay caught up.
  ASSERT_TRUE(engine.CloseSession("stalled").ok());
  EXPECT_EQ(registry.gauge("engine_session_fed_watermark_lag_slides").value(),
            0.0);
}

TEST(EngineDeterminismTest, DrainEmitsEngineSpans) {
  obs::TraceRecorder::Options trace_options;
  trace_options.logical_time = true;
  obs::TraceRecorder recorder(trace_options);
  recorder.Install();

  EngineOptions options;
  options.num_threads = 1;
  DiscEngine engine(options);
  ASSERT_TRUE(engine.CreateSession("traced", TestSession()).ok());
  ASSERT_TRUE(engine.FeedSlide("traced", MakeSlides(7, 1)[0]).ok());
  EXPECT_EQ(engine.Drain(), 1u);
  recorder.Uninstall();

  std::ostringstream os;
  recorder.WriteChromeJson(os);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("engine.drain"), std::string::npos);
  EXPECT_NE(trace.find("engine.session"), std::string::npos);
  EXPECT_NE(trace.find("pipeline.slide"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Checkpoint / kill / recover
// ---------------------------------------------------------------------------

TEST(EngineRecoveryTest, KillAndRecoverEqualsUninterrupted) {
  constexpr std::size_t kSessions = 3;
  constexpr std::size_t kTotal = 12;
  constexpr std::size_t kBeforeKill = 6;

  std::vector<std::vector<std::vector<Point>>> streams;
  std::vector<std::vector<std::string>> expected;
  std::vector<std::vector<std::string>> expected_restarted;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kSessions; ++i) {
    streams.push_back(MakeSlides(7000 + i, kTotal));
    expected.push_back(RunStandalone(streams.back()));
    expected_restarted.push_back(
        RunStandaloneWithRestart(streams.back(), kBeforeKill));
    names.push_back("recover_" + std::to_string(i));
  }

  EngineOptions options;
  options.num_threads = 2;
  options.spill_dir = SpillDir("recovery");

  {
    DiscEngine engine(options);
    for (std::size_t i = 0; i < kSessions; ++i) {
      ASSERT_TRUE(engine.CreateSession(names[i], TestSession()).ok());
    }
    for (std::size_t k = 0; k < kBeforeKill; ++k) {
      for (std::size_t i = 0; i < kSessions; ++i) {
        ASSERT_TRUE(engine.FeedSlide(names[i], streams[i][k]).ok());
      }
    }
    // Checkpoint drains the queued slides first, then spills; the engine is
    // then destroyed without further ceremony — the "kill".
    ASSERT_TRUE(engine.Checkpoint().ok());
  }

  Status error;
  std::unique_ptr<DiscEngine> engine = DiscEngine::Open(options, &error);
  ASSERT_NE(engine, nullptr) << error.message();
  ASSERT_EQ(engine->SessionNames(), names);
  for (std::size_t i = 0; i < kSessions; ++i) {
    // Slide numbering and persistent state resume exactly where the kill
    // happened (per-Update scratch — events, metrics — does not persist,
    // so compare the canonical prefix that does).
    EXPECT_EQ(engine->SlidesRun(names[i]), kBeforeKill);
    const std::string persistent =
        PersistentDiscState(EngineDisc(*engine, names[i]));
    ASSERT_TRUE(expected[i][kBeforeKill - 1].rfind(persistent + "|", 0) == 0)
        << "recovered session " << i << " state differs from the checkpoint";
  }
  // The resumed sessions evolve byte-for-byte as a standalone run that went
  // through the same checkpoint round-trip at the same boundary.
  for (std::size_t k = kBeforeKill; k < kTotal; ++k) {
    for (std::size_t i = 0; i < kSessions; ++i) {
      ASSERT_TRUE(engine->FeedSlide(names[i], streams[i][k]).ok());
    }
    engine->Drain();
    for (std::size_t i = 0; i < kSessions; ++i) {
      ASSERT_EQ(CanonicalDiscState(EngineDisc(*engine, names[i])),
                expected_restarted[i][k])
          << "recovered session " << i << " diverged at slide " << k;
    }
  }
  EXPECT_EQ(engine->SlidesRun(names[0]), kTotal);

  // And the interruption is invisible to the clustering itself: each final
  // recovered labeling equals the uninterrupted run's (cluster ids may be
  // renamed; the partition may not differ).
  for (std::size_t i = 0; i < kSessions; ++i) {
    const Disc& recovered = EngineDisc(*engine, names[i]);
    Disc uninterrupted(2, TestConfig());
    CountBasedWindow window(kWindow, kStride);
    for (const std::vector<Point>& slide : streams[i]) {
      WindowDelta delta = window.Advance(slide);
      uninterrupted.Update(delta.incoming, delta.outgoing);
    }
    const std::vector<Point> contents = recovered.WindowContents();
    const EquivalenceResult eq =
        CheckSameClustering(recovered.Snapshot(), uninterrupted.Snapshot(),
                            contents, TestConfig().eps);
    EXPECT_TRUE(eq.ok) << "session " << i << ": " << eq.error;
  }
  std::filesystem::remove_all(options.spill_dir);
}

TEST(EngineRecoveryTest, CheckpointStatusErrors) {
  EngineOptions no_spill_options;
  no_spill_options.num_threads = 1;
  DiscEngine no_spill(no_spill_options);
  const Status disabled = no_spill.Checkpoint();
  EXPECT_FALSE(disabled.ok());
  EXPECT_NE(disabled.message().find("spill_dir"), std::string::npos);

  EngineOptions options;
  options.num_threads = 1;
  options.spill_dir = SpillDir("status");
  DiscEngine engine(options);
  ASSERT_TRUE(engine.CreateSession("exact", TestSession()).ok());
  ASSERT_TRUE(engine.Checkpoint().ok());
  EXPECT_TRUE(std::filesystem::exists(options.spill_dir + "/engine.manifest"));
  std::filesystem::remove_all(options.spill_dir);
}

TEST(EngineRecoveryTest, TornCheckpointLeavesPreviousGenerationLive) {
  EngineOptions options;
  options.num_threads = 1;
  options.spill_dir = SpillDir("torn");
  const std::vector<std::vector<Point>> slides = MakeSlides(9100, 3);
  {
    DiscEngine engine(options);
    ASSERT_TRUE(engine.CreateSession("torn", TestSession()).ok());
    ASSERT_TRUE(engine.FeedSlide("torn", slides[0]).ok());
    ASSERT_TRUE(engine.FeedSlide("torn", slides[1]).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  // Simulate a crash in the middle of the next Checkpoint(): the new
  // generation is staged as .tmp files before anything is renamed, so a
  // kill at that point leaves half-written .tmp garbage next to the intact
  // published generation.
  {
    std::ofstream stage(options.spill_dir + "/torn.session.tmp",
                        std::ios::binary | std::ios::trunc);
    stage << "partial write from a crashed checkpoint";
  }
  {
    std::ofstream stage(options.spill_dir + "/engine.manifest.tmp",
                        std::ios::trunc);
    stage << "DISCENGINE 1\n99\n";
  }
  Status error;
  std::unique_ptr<DiscEngine> engine = DiscEngine::Open(options, &error);
  ASSERT_NE(engine, nullptr) << error.message();
  EXPECT_EQ(engine->SlidesRun("torn"), 2u);
  // The recovered session still streams.
  ASSERT_TRUE(engine->FeedSlide("torn", slides[2]).ok());
  EXPECT_EQ(engine->Drain(), 1u);
  std::filesystem::remove_all(options.spill_dir);
}

TEST(EngineRecoveryTest, OpenRejectsDegenerateGeometry) {
  EngineOptions options;
  options.num_threads = 1;
  options.spill_dir = SpillDir("geometry");
  {
    DiscEngine engine(options);
    ASSERT_TRUE(engine.CreateSession("geom", TestSession()).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  // Zero the spilled stride in place. Field offset per the spill framing:
  // magic u32, (u64 length + bytes) for the name, dims u32, window_size
  // u64, then stride u64.
  const std::string name = "geom";
  const std::streamoff stride_offset =
      4 + (8 + static_cast<std::streamoff>(name.size())) + 4 + 8;
  {
    std::fstream file(options.spill_dir + "/geom.session",
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekp(stride_offset);
    const char zeros[8] = {};
    file.write(zeros, sizeof(zeros));
    ASSERT_TRUE(static_cast<bool>(file));
  }
  Status error;
  EXPECT_EQ(DiscEngine::Open(options, &error), nullptr);
  EXPECT_FALSE(error.ok());
  EXPECT_NE(error.message().find("window geometry"), std::string::npos);
  std::filesystem::remove_all(options.spill_dir);
}

TEST(EngineRecoveryTest, OpenFailsWithoutManifest) {
  EngineOptions options;
  options.spill_dir = SpillDir("absent");
  Status error;
  EXPECT_EQ(DiscEngine::Open(options, &error), nullptr);
  EXPECT_FALSE(error.ok());
  EXPECT_NE(error.message().find("manifest"), std::string::npos);

  options.spill_dir.clear();
  EXPECT_EQ(DiscEngine::Open(options, &error), nullptr);
  EXPECT_FALSE(error.ok());
}

// ---------------------------------------------------------------------------
// Admission and feeding errors
// ---------------------------------------------------------------------------

TEST(EngineAdmissionTest, RejectsBadSessions) {
  EngineOptions options;
  options.num_threads = 1;
  DiscEngine engine(options);

  EXPECT_FALSE(engine.CreateSession("", TestSession()).ok());
  EXPECT_FALSE(engine.CreateSession("bad name", TestSession()).ok());
  EXPECT_FALSE(engine.CreateSession("0starts_with_digit", TestSession()).ok());

  ASSERT_TRUE(engine.CreateSession("taken", TestSession()).ok());
  const Status duplicate = engine.CreateSession("taken", TestSession());
  EXPECT_FALSE(duplicate.ok());
  EXPECT_NE(duplicate.message().find("taken"), std::string::npos);

  SessionOptions geometry = TestSession();
  geometry.spec.stride = 0;
  EXPECT_FALSE(engine.CreateSession("no_stride", geometry).ok());
  geometry.spec.stride = kWindow + 1;
  EXPECT_FALSE(engine.CreateSession("stride_gt_window", geometry).ok());

  SessionOptions invalid = TestSession();
  invalid.spec.disc.eps = -1.0;
  const Status bad_config = engine.CreateSession("bad_eps", invalid);
  EXPECT_FALSE(bad_config.ok());
  EXPECT_NE(bad_config.message().find("eps"), std::string::npos);

  // Only the one valid session was admitted.
  EXPECT_EQ(engine.session_count(), 1u);
  EXPECT_EQ(engine.SessionNames(), std::vector<std::string>{"taken"});
}

TEST(EngineAdmissionTest, FeedAndCloseErrors) {
  EngineOptions options;
  options.num_threads = 1;
  DiscEngine engine(options);
  ASSERT_TRUE(engine.CreateSession("only", TestSession()).ok());

  EXPECT_FALSE(engine.FeedSlide("missing", MakeSlides(1, 1)[0]).ok());
  const Status short_slide =
      engine.FeedSlide("only", std::vector<Point>(kStride - 1));
  EXPECT_FALSE(short_slide.ok());
  EXPECT_NE(short_slide.message().find("stride"), std::string::npos);
  EXPECT_EQ(engine.PendingSlides("only"), 0u);

  // Dimensionality is checked point by point at the API boundary, not deep
  // inside the clusterer at Drain time.
  std::vector<Point> mixed_dims = MakeSlides(2, 1)[0];
  mixed_dims[3].dims = 3;
  const Status bad_dims = engine.FeedSlide("only", mixed_dims);
  EXPECT_FALSE(bad_dims.ok());
  EXPECT_NE(bad_dims.message().find("dims"), std::string::npos);
  EXPECT_EQ(engine.PendingSlides("only"), 0u);

  EXPECT_FALSE(engine.CloseSession("missing").ok());
  EXPECT_TRUE(engine.CloseSession("only").ok());
  EXPECT_EQ(engine.session_count(), 0u);
  EXPECT_EQ(engine.Drain(), 0u);
}

// ---------------------------------------------------------------------------
// Clusterer factory
// ---------------------------------------------------------------------------

TEST(ClustererFactoryTest, CoversEveryMethodKey) {
  ClustererSpec spec;
  spec.dims = 2;
  spec.window_size = 40;
  spec.stride = 10;
  spec.disc = TestConfig();
  for (std::string_view method : KnownClustererMethods()) {
    Status error;
    std::unique_ptr<StreamClusterer> clusterer =
        MakeClusterer(method, spec, &error);
    ASSERT_NE(clusterer, nullptr) << method << ": " << error.message();
    EXPECT_TRUE(error.ok());
  }
  // Matching is case-insensitive.
  EXPECT_NE(MakeClusterer("disc", spec), nullptr);
  EXPECT_NE(MakeClusterer("dbstream", spec), nullptr);
}

TEST(ClustererFactoryTest, UnknownMethodIsDescriptiveAndSafe) {
  ClustererSpec spec;
  spec.dims = 2;
  spec.window_size = 40;
  spec.stride = 10;
  spec.disc = TestConfig();

  // With a null error pointer: no crash, just a null clusterer.
  EXPECT_EQ(MakeClusterer("NOT_A_METHOD", spec), nullptr);

  // With an error out-param: the message names the offender and lists
  // every known method, so the caller can fix a typo without digging.
  Status error;
  EXPECT_EQ(MakeClusterer("NOT_A_METHOD", spec, &error), nullptr);
  EXPECT_FALSE(error.ok());
  EXPECT_NE(error.message().find("NOT_A_METHOD"), std::string::npos)
      << error.message();
  for (std::string_view method : KnownClustererMethods()) {
    EXPECT_NE(error.message().find(method), std::string::npos)
        << "unknown-method error should list \"" << method
        << "\": " << error.message();
  }

  // The empty string is just another unknown method, not a special case.
  EXPECT_EQ(MakeClusterer("", spec, &error), nullptr);
  EXPECT_FALSE(error.ok());
}

TEST(ClustererFactoryTest, ReportsConstructionErrors) {
  ClustererSpec spec;
  spec.disc = TestConfig();

  Status error;
  EXPECT_EQ(MakeClusterer("KMEANS", spec, &error), nullptr);
  EXPECT_FALSE(error.ok());
  EXPECT_NE(error.message().find("DISC"), std::string::npos)
      << "unknown-method error should list the known keys: "
      << error.message();

  // EXTRA-N needs the window geometry.
  EXPECT_EQ(MakeClusterer("EXTRA-N", spec, &error), nullptr);
  EXPECT_FALSE(error.ok());
  EXPECT_NE(error.message().find("EXTRA-N"), std::string::npos);

  spec.disc.eps = 0.0;
  EXPECT_EQ(MakeClusterer("DISC", spec, &error), nullptr);
  EXPECT_FALSE(error.ok());
  EXPECT_NE(error.message().find("eps"), std::string::npos);
}

// ---------------------------------------------------------------------------
// DiscConfig::Validate
// ---------------------------------------------------------------------------

TEST(ConfigValidateTest, DescribesEachViolation) {
  EXPECT_TRUE(DiscConfig{}.Validate().ok());

  DiscConfig bad_eps;
  bad_eps.eps = -0.5;
  Status status = bad_eps.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("eps"), std::string::npos);

  DiscConfig bad_tau;
  bad_tau.tau = 0;
  status = bad_tau.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("tau"), std::string::npos);

  DiscConfig bad_fanout;
  bad_fanout.rtree_max_entries = 3;
  status = bad_fanout.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("rtree_max_entries"), std::string::npos);
}

TEST(ConfigValidateTest, DiscConstructorThrowsOnInvalidConfig) {
  DiscConfig config;
  config.eps = 0.0;
  EXPECT_THROW(Disc(2, config), std::invalid_argument);
  config = DiscConfig{};
  config.tau = 0;
  EXPECT_THROW(Disc(2, config), std::invalid_argument);
}

}  // namespace
}  // namespace disc
