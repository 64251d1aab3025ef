// Tests for the COLLECT parallelization: the ThreadPool/ParallelFor
// primitive itself, and the contract that matters most — clustering output
// is bit-identical for every DiscConfig::num_threads value.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baselines/dbscan.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/disc.h"
#include "eval/equivalence.h"
#include "gtest/gtest.h"

namespace disc {
namespace {

// ---------------------------------------------------------------------------
// ParallelFor
// ---------------------------------------------------------------------------

TEST(ParallelForTest, NullPoolRunsSequentially) {
  std::vector<int> hits(100, 0);
  std::vector<std::size_t> lanes;
  ParallelFor(nullptr, hits.size(), [&](std::size_t lane, std::size_t i) {
    ++hits[i];
    lanes.push_back(lane);
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  for (std::size_t lane : lanes) EXPECT_EQ(lane, 0u);
}

TEST(ParallelForTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.lanes(), 4u);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelFor(&pool, kN, [&](std::size_t lane, std::size_t i) {
    ASSERT_LT(lane, pool.lanes());
    ASSERT_LT(i, kN);
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeDoesNothing) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 0, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

// A batch of one is not dispatched: it runs on the calling thread as lane
// 0, exactly like every batch of a worker-less pool (a lone DiscEngine
// session's slide relies on this to stay on the scheduler thread).
TEST(ParallelForTest, OneItemBatchRunsInlineAsLaneZero) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::thread::id ran_on;
    std::size_t ran_lane = pool.lanes();
    int calls = 0;
    ParallelFor(&pool, 1, [&](std::size_t lane, std::size_t i) {
      EXPECT_EQ(i, 0u);
      ran_on = std::this_thread::get_id();
      ran_lane = lane;
      ++calls;
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(ran_on, std::this_thread::get_id()) << "round " << round;
    EXPECT_EQ(ran_lane, 0u) << "round " << round;
  }
  // An exception from the inline body reaches the caller; the pool is
  // untouched and still dispatches larger batches.
  EXPECT_THROW(ParallelFor(&pool, 1,
                           [](std::size_t, std::size_t) {
                             throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 8, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ParallelForTest, PoolIsReusableAcrossBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = static_cast<std::size_t>(round * 17 % 97);
    std::atomic<std::uint64_t> sum{0};
    ParallelFor(&pool, n,
                [&](std::size_t, std::size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

TEST(ParallelForTest, BodyExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(2);
  EXPECT_THROW(ParallelFor(&pool, 64,
                           [&](std::size_t, std::size_t i) {
                             if (i == 13) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // The pool must drain cleanly and accept the next batch.
  std::atomic<int> calls{0};
  ParallelFor(&pool, 8, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 8);
}

// ---------------------------------------------------------------------------
// Determinism across thread counts
// ---------------------------------------------------------------------------

// Canonical serialization of everything observable after one Update:
// labeling (sorted by id), the UpdateDelta, and the event stream.
std::string Canonical(const Disc& disc, const UpdateDelta& delta) {
  const ClusteringSnapshot snap = disc.Snapshot();
  std::vector<std::size_t> order(snap.ids.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              return snap.ids[a] < snap.ids[b];
            });
  std::ostringstream os;
  for (std::size_t i : order) {
    os << snap.ids[i] << ':' << static_cast<int>(snap.categories[i]) << ':'
       << snap.cids[i] << ';';
  }
  auto dump_sorted = [&os](std::vector<PointId> ids) {
    std::sort(ids.begin(), ids.end());
    os << '|';
    for (PointId id : ids) os << id << ',';
  };
  dump_sorted(delta.entered);
  dump_sorted(delta.exited);
  dump_sorted(delta.relabeled);
  os << '|';
  for (const ClusterEvent& ev : disc.last_events()) {
    os << static_cast<int>(ev.type) << '(';
    for (ClusterId cid : ev.cids) os << cid << ',';
    os << ')';
  }
  return os.str();
}

// Replays the same churn stream into a Disc configured with num_threads and
// records the canonical observation per round.
std::vector<std::string> RunChurn(std::uint32_t num_threads,
                                  std::uint64_t seed) {
  Rng rng(seed * 104729 + 7);
  DiscConfig config;
  config.eps = 0.25;
  config.tau = 3 + static_cast<std::uint32_t>(seed % 3);
  config.num_threads = num_threads;
  Disc disc(2, config);
  std::vector<Point> live;
  PointId next_id = 0;
  std::vector<std::string> trace;
  for (int round = 0; round < 20; ++round) {
    std::vector<Point> incoming;
    std::vector<Point> outgoing;
    const int ins = static_cast<int>(rng.UniformInt(0, 60));
    for (int i = 0; i < ins; ++i) {
      Point p;
      p.id = next_id++;
      p.dims = 2;
      if (rng.Bernoulli(0.5)) {
        const double cx = 0.3 * static_cast<double>(rng.UniformInt(0, 4));
        p.x[0] = cx + rng.Uniform(0.0, 0.2);
        p.x[1] = cx + rng.Uniform(0.0, 0.2);
      } else {
        p.x[0] = rng.Uniform(0.0, 2.0);
        p.x[1] = rng.Uniform(0.0, 2.0);
      }
      incoming.push_back(p);
      live.push_back(p);
    }
    const int dels =
        static_cast<int>(rng.UniformInt(0, static_cast<std::int64_t>(
                                               live.size() - incoming.size())));
    for (int i = 0; i < dels; ++i) {
      const std::size_t victim = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      bool fresh = false;
      for (const Point& p : incoming) {
        if (p.id == live[victim].id) {
          fresh = true;
          break;
        }
      }
      if (fresh) continue;
      outgoing.push_back(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }
    const UpdateDelta& delta = disc.Update(incoming, outgoing);
    trace.push_back(Canonical(disc, delta));
  }
  return trace;
}

class ThreadDeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThreadDeterminismTest, AllThreadCountsProduceIdenticalOutput) {
  const std::uint64_t seed = GetParam();
  const std::vector<std::string> baseline = RunChurn(1, seed);
  for (std::uint32_t threads : {2u, 4u, 8u}) {
    const std::vector<std::string> trace = RunChurn(threads, seed);
    ASSERT_EQ(trace.size(), baseline.size());
    for (std::size_t round = 0; round < trace.size(); ++round) {
      ASSERT_EQ(trace[round], baseline[round])
          << "seed " << seed << " round " << round << " threads " << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadDeterminismTest,
                         ::testing::Range<std::uint64_t>(0, 6));

// The parallel path must stay DBSCAN-exact, not merely self-consistent.
TEST(ThreadDeterminismTest, ParallelCollectStaysDbscanExact) {
  Rng rng(42);
  DiscConfig config;
  config.eps = 0.25;
  config.tau = 4;
  config.num_threads = 4;
  Disc disc(2, config);
  std::vector<Point> live;
  PointId next_id = 0;
  for (int round = 0; round < 15; ++round) {
    std::vector<Point> incoming;
    for (int i = 0; i < 50; ++i) {
      Point p;
      p.id = next_id++;
      p.dims = 2;
      p.x[0] = rng.Uniform(0.0, 1.5);
      p.x[1] = rng.Uniform(0.0, 1.5);
      incoming.push_back(p);
      live.push_back(p);
    }
    std::vector<Point> outgoing;
    while (live.size() > 400) {
      outgoing.push_back(live.front());
      live.erase(live.begin());
    }
    disc.Update(incoming, outgoing);
    const DbscanResult truth = RunDbscan(live, config.eps, config.tau);
    const EquivalenceResult eq =
        CheckSameClustering(disc.Snapshot(), truth.snapshot, live, config.eps);
    ASSERT_TRUE(eq.ok) << "round " << round << ": " << eq.error;
  }
}

TEST(ThreadDeterminismTest, MetricsReportThreadsUsed) {
  DiscConfig config;
  config.eps = 0.25;
  config.tau = 3;
  config.num_threads = 4;
  Disc disc(2, config);
  std::vector<Point> incoming;
  for (int i = 0; i < 32; ++i) {
    Point p;
    p.id = static_cast<PointId>(i);
    p.dims = 2;
    p.x[0] = 0.01 * i;
    p.x[1] = 0.01 * i;
    incoming.push_back(p);
  }
  disc.Update(incoming, {});
  EXPECT_EQ(disc.last_metrics().threads_used, 4u);
  EXPECT_GE(disc.last_metrics().collect_parallel_ms, 0.0);
  EXPECT_GE(disc.LastPhaseTimings().threads_used, 4u);

  // num_threads = 1 (how DiscEngine runs every session) is one lane.
  config.num_threads = 1;
  Disc single(2, config);
  single.Update(incoming, {});
  EXPECT_EQ(single.last_metrics().threads_used, 1u);
  EXPECT_EQ(single.LastPhaseTimings().threads_used, 1u);
}

}  // namespace
}  // namespace disc
