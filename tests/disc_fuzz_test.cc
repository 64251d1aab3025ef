// Differential fuzzing for DISC: adversarial randomized streams engineered
// to trigger the hard paths — elongated clusters shedding interior segments
// (multi-group splits of one cluster per slide), survivor reconciliation,
// mass dissipation, and rapid re-merging. Every slide is compared against
// fresh DBSCAN.

#include <memory>
#include <vector>

#include "baselines/dbscan.h"
#include "common/rng.h"
#include "core/disc.h"
#include "eval/equivalence.h"
#include "gtest/gtest.h"
#include "stream/maze_generator.h"
#include "stream/sliding_window.h"

namespace disc {
namespace {

// A stream drawn from segments of a jagged polyline: windowed snapshots are
// long thin chains that break into several pieces at once when interior
// stretches rotate out of the window — the worst case for the ex-core phase.
class PolylineStream : public StreamSource {
 public:
  PolylineStream(int num_chains, std::uint64_t seed)
      : rng_(seed), num_chains_(num_chains) {
    for (int c = 0; c < num_chains_; ++c) {
      anchors_.push_back({rng_.Uniform(0.0, 30.0), rng_.Uniform(0.0, 30.0)});
      headings_.push_back(rng_.Uniform(0.0, 6.28318));
      offsets_.push_back(0.0);
    }
  }

  LabeledPoint Next() override {
    // Emit along chain c at a position that sweeps forward, with occasional
    // jumps that leave density gaps (future split points).
    const int c = static_cast<int>(rng_.UniformInt(0, num_chains_ - 1));
    offsets_[c] += rng_.Bernoulli(0.02) ? rng_.Uniform(0.5, 1.5)
                                        : rng_.Uniform(0.0, 0.05);
    if (rng_.Bernoulli(0.01)) {
      headings_[c] += rng_.Uniform(-1.0, 1.0);
    }
    LabeledPoint lp;
    lp.point.id = TakeId();
    lp.point.dims = 2;
    lp.point.x[0] = anchors_[c].first +
                    offsets_[c] * std::cos(headings_[c]) +
                    rng_.Normal(0.0, 0.03);
    lp.point.x[1] = anchors_[c].second +
                    offsets_[c] * std::sin(headings_[c]) +
                    rng_.Normal(0.0, 0.03);
    lp.true_label = c;
    return lp;
  }

 private:
  Rng rng_;
  int num_chains_;
  std::vector<std::pair<double, double>> anchors_;
  std::vector<double> headings_;
  std::vector<double> offsets_;
};

// Every fuzz scenario also drives a twin instance whose config differs only
// in num_threads. Beyond matching the DBSCAN oracle, the twin must stay
// byte-identical to the single-threaded instance — the configs agree on
// everything semantic, so any divergence is a determinism bug in the
// parallel COLLECT/CLUSTER machinery.
void ExpectTwinIdentical(const Disc& base, const Disc& twin,
                         std::uint64_t seed, int slide) {
  const ClusteringSnapshot a = base.Snapshot();
  const ClusteringSnapshot b = twin.Snapshot();
  ASSERT_TRUE(a.ids == b.ids && a.categories == b.categories &&
              a.cids == b.cids)
      << "seed " << seed << " slide " << slide
      << ": num_threads=4 twin snapshot diverged from num_threads=1";
}

class DiscFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiscFuzzTest, PolylineChainsStayExact) {
  const std::uint64_t seed = GetParam();
  DiscConfig config;
  config.eps = 0.2;
  config.tau = 4;
  // Alternate optimization settings across seeds for breadth.
  config.use_msbfs = (seed % 2) == 0;
  config.use_epoch_probing = (seed % 3) != 0;
  Disc disc(2, config);
  DiscConfig par_config = config;
  par_config.num_threads = 4;
  Disc par_disc(2, par_config);
  PolylineStream source(4, seed);
  CountBasedWindow window(800, 160);
  for (int s = 0; s < 15; ++s) {
    WindowDelta d = window.Advance(source.NextPoints(160));
    disc.Update(d.incoming, d.outgoing);
    par_disc.Update(d.incoming, d.outgoing);
    std::vector<Point> contents(window.contents().begin(),
                                window.contents().end());
    const DbscanResult truth = RunDbscan(contents, config.eps, config.tau);
    const EquivalenceResult eq = CheckSameClustering(
        disc.Snapshot(), truth.snapshot, contents, config.eps);
    ASSERT_TRUE(eq.ok) << "seed " << seed << " slide " << s << ": "
                       << eq.error;
    const EquivalenceResult par_eq = CheckSameClustering(
        par_disc.Snapshot(), truth.snapshot, contents, config.eps);
    ASSERT_TRUE(par_eq.ok) << "seed " << seed << " slide " << s
                           << " (num_threads=4): " << par_eq.error;
    ExpectTwinIdentical(disc, par_disc, seed, s);
  }
}

TEST_P(DiscFuzzTest, RandomChurnStaysExact) {
  // Pure random insert/delete churn through Update batches of varying size,
  // including empty batches and full turnovers.
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 13);
  DiscConfig config;
  config.eps = 0.25;
  config.tau = 3 + static_cast<std::uint32_t>(seed % 3);
  Disc disc(2, config);
  DiscConfig par_config = config;
  par_config.num_threads = 4;
  Disc par_disc(2, par_config);
  std::vector<Point> live;
  PointId next_id = 0;
  for (int round = 0; round < 25; ++round) {
    std::vector<Point> incoming;
    std::vector<Point> outgoing;
    const int ins = static_cast<int>(rng.UniformInt(0, 60));
    for (int i = 0; i < ins; ++i) {
      Point p;
      p.id = next_id++;
      p.dims = 2;
      // Clumpy space: half the mass in a few dense cells.
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
      // Avoid deleting a point inserted in this same batch.
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
    disc.Update(incoming, outgoing);
    par_disc.Update(incoming, outgoing);
    ASSERT_EQ(disc.window_size(), live.size());
    const DbscanResult truth = RunDbscan(live, config.eps, config.tau);
    const EquivalenceResult eq =
        CheckSameClustering(disc.Snapshot(), truth.snapshot, live, config.eps);
    ASSERT_TRUE(eq.ok) << "seed " << seed << " round " << round << ": "
                       << eq.error;
    const EquivalenceResult par_eq = CheckSameClustering(
        par_disc.Snapshot(), truth.snapshot, live, config.eps);
    ASSERT_TRUE(par_eq.ok) << "seed " << seed << " round " << round
                           << " (num_threads=4): " << par_eq.error;
    ExpectTwinIdentical(disc, par_disc, seed, round);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 12));

// The Maze at interlocking density is another multi-split workhorse: long
// thin trajectories with tails expiring every slide.
TEST(DiscFuzzTest, DenseMazeLongRun) {
  DiscConfig config;
  config.eps = 0.12;
  config.tau = 5;
  Disc disc(2, config);
  MazeGenerator::Options o;
  o.num_seeds = 12;
  o.extent = 8.0;  // Crowded: trajectories constantly touch and part.
  o.step = 0.06;
  o.jitter = 0.02;
  o.points_per_step = 3;
  o.seed = 71;
  MazeGenerator source(o);
  DiscConfig par_config = config;
  par_config.num_threads = 4;
  Disc par_disc(2, par_config);
  CountBasedWindow window(1200, 120);
  for (int s = 0; s < 30; ++s) {
    WindowDelta d = window.Advance(source.NextPoints(120));
    disc.Update(d.incoming, d.outgoing);
    par_disc.Update(d.incoming, d.outgoing);
    std::vector<Point> contents(window.contents().begin(),
                                window.contents().end());
    const DbscanResult truth = RunDbscan(contents, config.eps, config.tau);
    const EquivalenceResult eq = CheckSameClustering(
        disc.Snapshot(), truth.snapshot, contents, config.eps);
    ASSERT_TRUE(eq.ok) << "slide " << s << ": " << eq.error;
    const EquivalenceResult par_eq = CheckSameClustering(
        par_disc.Snapshot(), truth.snapshot, contents, config.eps);
    ASSERT_TRUE(par_eq.ok) << "slide " << s << " seed 71 (num_threads=4): "
                           << par_eq.error;
    ExpectTwinIdentical(disc, par_disc, /*seed=*/71, s);
  }
}

}  // namespace
}  // namespace disc
