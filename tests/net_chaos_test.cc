// Chaos harness for the ingest plane (ctest -L chaos): arms the net.*
// failpoints (net.accept, net.frame.read, net.frame.write, net.admit)
// under the same pinned seeds as tests/chaos_test.cc and hammers a
// DiscEngine through IngestServer with a reconnecting producer.
//
// The invariant under fire is the wire protocol's no-silent-drop
// contract (docs/API.md §net):
//
//   acked  <=  SlidesRun + PendingSlides  <=  acked + unknown
//
// where `acked` counts slides whose kOk response arrived, and `unknown`
// counts sends where the connection died before a response (the slide
// may or may not have been admitted — the one outcome a crash mid-ack
// permits). A clean rejection (kBusy, or an injected net.admit error)
// admits nothing, so retrying it can never double-feed; an unknown
// outcome is never retried, so nothing is ever duplicated.
//
// Seeds are pinned ({1701, 424242, 777000777}); DISC_CHAOS_SEED=N
// overrides for replaying a single offender.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "engine/disc_engine.h"
#include "gtest/gtest.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "obs/metrics_registry.h"
#include "stream/blobs_generator.h"

namespace disc {
namespace net {
namespace {

using failpoint::FailAction;
using failpoint::FailPlan;
using failpoint::FailRule;
using failpoint::Registry;
using failpoint::ScopedFailPlan;

constexpr std::size_t kWindow = 120;
constexpr std::size_t kStride = 30;

const std::uint64_t kChaosSeeds[] = {1701, 424242, 777000777};

std::vector<std::uint64_t> SeedsUnderTest() {
  if (const char* override_seed = std::getenv("DISC_CHAOS_SEED")) {
    return {std::strtoull(override_seed, nullptr, 10)};
  }
  return {std::begin(kChaosSeeds), std::end(kChaosSeeds)};
}

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

FailRule Rule(const std::string& site, FailAction action, double probability,
              std::uint64_t skip = 0,
              std::uint64_t max_fires =
                  std::numeric_limits<std::uint64_t>::max()) {
  FailRule rule;
  rule.site = site;
  rule.action = action;
  rule.probability = probability;
  rule.skip = skip;
  rule.max_fires = max_fires;
  return rule;
}

// Reconnect with patience: under an armed net.accept rule a fresh
// connection can be reset before its first byte, so one attempt proves
// nothing.
bool EnsureConnected(IngestClient& client) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (client.connected()) return true;
    if (client.Connect().ok()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// The main storm: every net.* site armed at once, three pinned seeds, a
// producer that keeps reconnecting. After the plan disarms, the plane
// must still be serving and the slide accounting must balance.
TEST(NetChaosTest, FaultStormNeverLosesOrDuplicatesAdmittedSlides) {
  const std::vector<std::string> names = {"storm_a", "storm_b"};
  constexpr std::size_t kSlideCount = 12;

  for (const std::uint64_t seed : SeedsUnderTest()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    obs::MetricsRegistry metrics;
    EngineOptions engine_options;
    engine_options.num_threads = 2;
    engine_options.metrics = &metrics;
    DiscEngine engine(engine_options);
    // Sessions exist before the storm; creation semantics under faults
    // get their own test below.
    for (const std::string& name : names) {
      ASSERT_TRUE(engine.CreateSession(name, TestSession()).ok());
    }
    IngestServerOptions server_options;
    server_options.engine = &engine;
    server_options.metrics = &metrics;
    server_options.worker_threads = 2;
    server_options.max_pending_slides = 4;
    IngestServer server(server_options);
    ASSERT_TRUE(server.Start().ok());

    std::vector<std::vector<std::vector<Point>>> streams;
    for (std::size_t i = 0; i < names.size(); ++i) {
      streams.push_back(MakeSlides(seed * 2 + i, kSlideCount));
    }

    std::vector<std::size_t> acked(names.size(), 0);
    std::vector<std::size_t> unknown(names.size(), 0);
    {
      FailPlan plan;
      plan.seed = seed;
      plan.rules.push_back(Rule("net.accept", FailAction::kThrow, 0.25));
      plan.rules.push_back(Rule("net.frame.read", FailAction::kThrow, 0.10));
      plan.rules.push_back(Rule("net.frame.write", FailAction::kThrow, 0.10));
      plan.rules.push_back(Rule("net.admit", FailAction::kStatus, 0.15));
      ScopedFailPlan armed(plan);

      IngestClientOptions client_options;
      client_options.port = server.port();
      IngestClient client(client_options);
      for (std::size_t k = 0; k < kSlideCount; ++k) {
        for (std::size_t i = 0; i < names.size(); ++i) {
          bool resolved = false;
          for (int attempt = 0; attempt < 100 && !resolved; ++attempt) {
            ASSERT_TRUE(EnsureConnected(client))
                << names[i] << " slide " << k;
            bool busy = false;
            const Status fed =
                client.FeedSlide(names[i], streams[i][k], &busy);
            if (fed.ok()) {
              ++acked[i];
              resolved = true;
            } else if (busy) {
              // Not admitted; make room and re-send the same slide. The
              // drain itself may die to an injected fault — the loop
              // reconnects.
              static_cast<void>(client.Drain());
            } else if (!client.connected()) {
              // Connection died awaiting the response: admission unknown.
              // Re-sending could double-feed, so the slide is abandoned.
              ++unknown[i];
              resolved = true;
            }
            // else: clean kError with the connection intact (an injected
            // net.admit fault) — nothing admitted, safe to re-send.
          }
          ASSERT_TRUE(resolved) << names[i] << " slide " << k
                                << " never resolved in 100 attempts";
        }
      }
    }  // Disarm; counters below survive.

    // The plane survived the storm.
    EXPECT_TRUE(server.running());

    // No accepted slide lost, no abandoned slide duplicated.
    for (std::size_t i = 0; i < names.size(); ++i) {
      const std::size_t landed =
          engine.SlidesRun(names[i]) + engine.PendingSlides(names[i]);
      EXPECT_GE(landed, acked[i]) << names[i];
      EXPECT_LE(landed, acked[i] + unknown[i]) << names[i];
    }
    engine.Drain();

    // A fresh producer gets clean service immediately after disarm.
    IngestClientOptions probe_options;
    probe_options.port = server.port();
    IngestClient probe(probe_options);
    ASSERT_TRUE(probe.Connect().ok());
    EXPECT_TRUE(probe.Ping().ok());
    for (std::size_t i = 0; i < names.size(); ++i) {
      ClusteringSnapshot snapshot;
      EXPECT_TRUE(probe.QuerySnapshot(names[i], &snapshot).ok());
      if (acked[i] > 0) {
        EXPECT_GT(snapshot.size(), 0u);
      }
    }

    // Every armed site was actually exercised and the storm was real.
    for (const char* site :
         {"net.accept", "net.frame.read", "net.frame.write", "net.admit"}) {
      EXPECT_GT(Registry::Instance().Hits(site), 0u) << site;
    }
    EXPECT_GT(Registry::Instance().TotalFires(), 0u);
    server.Stop();
  }
}

// An injected admission fault must behave exactly like any engine
// rejection: descriptive kError, connection intact, nothing admitted —
// so the producer's retry is safe and nothing is lost or duplicated.
TEST(NetChaosTest, AdmitFaultIsACleanRetryableRejection) {
  DiscEngine engine(EngineOptions{});
  ASSERT_TRUE(engine.CreateSession("admit", TestSession()).ok());
  IngestServerOptions server_options;
  server_options.engine = &engine;
  IngestServer server(server_options);
  ASSERT_TRUE(server.Start().ok());
  IngestClientOptions client_options;
  client_options.port = server.port();
  IngestClient client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  const auto slides = MakeSlides(31, 2);

  FailPlan plan;
  plan.seed = SeedsUnderTest().front();
  plan.rules.push_back(Rule("net.admit", FailAction::kStatus, 1.0,
                            /*skip=*/1, /*max_fires=*/1));
  ScopedFailPlan armed(plan);

  ASSERT_TRUE(client.FeedSlide("admit", slides[0]).ok());  // Hit 1: skipped.
  bool busy = false;
  const Status rejected = client.FeedSlide("admit", slides[1], &busy);
  ASSERT_FALSE(rejected.ok());
  EXPECT_FALSE(busy);
  EXPECT_NE(rejected.message().find("injected fault at net.admit"),
            std::string::npos);
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(engine.PendingSlides("admit"), 1u);  // Slide 2 not admitted.

  ASSERT_TRUE(client.FeedSlide("admit", slides[1]).ok());  // Safe retry.
  std::uint64_t executed = 0;
  ASSERT_TRUE(client.Drain(&executed).ok());
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(engine.SlidesRun("admit"), 2u);  // Once each: no loss, no dup.
  EXPECT_EQ(Registry::Instance().Fires("net.admit"), 1u);
  client.Close();
  server.Stop();
}

// A write fault after admission is the one genuinely ambiguous outcome:
// the slide IS in, but the ack never arrives. The client must report the
// connection lost with "outcome unknown", and the server side must hold
// the admitted slide.
TEST(NetChaosTest, WriteFaultAfterAdmissionIsUnknownNotLost) {
  DiscEngine engine(EngineOptions{});
  ASSERT_TRUE(engine.CreateSession("ambig", TestSession()).ok());
  IngestServerOptions server_options;
  server_options.engine = &engine;
  IngestServer server(server_options);
  ASSERT_TRUE(server.Start().ok());
  IngestClientOptions client_options;
  client_options.port = server.port();
  IngestClient client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Ping().ok());  // Response write #1.
  const auto slides = MakeSlides(77, 1);

  FailPlan plan;
  plan.seed = SeedsUnderTest().front();
  // The ping response predates arming (unarmed sites are never counted),
  // so the first counted write hit is the ack for the slide below.
  plan.rules.push_back(Rule("net.frame.write", FailAction::kThrow, 1.0,
                            /*skip=*/0, /*max_fires=*/1));
  ScopedFailPlan armed(plan);

  bool busy = false;
  const Status fed = client.FeedSlide("ambig", slides[0], &busy);
  ASSERT_FALSE(fed.ok());
  EXPECT_FALSE(busy);
  EXPECT_NE(fed.message().find("outcome unknown"), std::string::npos);
  EXPECT_FALSE(client.connected());

  // The slide was admitted before the ack died: exactly once, not lost.
  EXPECT_EQ(engine.PendingSlides("ambig"), 1u);
  engine.Drain();
  EXPECT_EQ(engine.SlidesRun("ambig"), 1u);
  EXPECT_EQ(Registry::Instance().Fires("net.frame.write"), 1u);

  // The lane survived the throw; a reconnect gets clean service.
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Ping().ok());
  client.Close();
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace disc
