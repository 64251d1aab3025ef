// Disc::Snapshot() is served from an id-sorted label column that Update
// patches from its delta. These tests pin that column to the records: after
// every slide, on every generator and on misuse streams (out-of-order ids,
// duplicate ids, unknown outgoing ids, rejected points, scattered exits), the
// snapshot must be byte-identical to that of a SaveCheckpoint ->
// LoadCheckpoint twin, whose column is rebuilt from the records.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/datasets.h"
#include "common/rng.h"
#include "core/disc.h"
#include "gtest/gtest.h"
#include "stream/blobs_generator.h"
#include "stream/netflow_generator.h"
#include "stream/sliding_window.h"
#include "stream/stream_source.h"

namespace disc {
namespace {

void ExpectSnapshotMatchesTwin(const Disc& disc, std::uint32_t dims,
                               const std::string& where) {
  std::stringstream buf;
  ASSERT_TRUE(disc.SaveCheckpoint(buf).ok()) << where;
  Disc twin(dims, disc.config());
  ASSERT_TRUE(twin.LoadCheckpoint(buf).ok()) << where;
  const ClusteringSnapshot got = disc.Snapshot();
  const ClusteringSnapshot want = twin.Snapshot();
  ASSERT_EQ(got.ids.size(), disc.window_size()) << where;
  ASSERT_EQ(got.ids, want.ids) << where;
  ASSERT_EQ(got.categories, want.categories) << where;
  ASSERT_EQ(got.cids, want.cids) << where;
}

struct GeneratorCase {
  std::string name;
  double eps;
  std::uint32_t tau;
  std::size_t window;
  std::function<std::unique_ptr<StreamSource>()> make;
};

std::vector<GeneratorCase> AllGenerators() {
  std::vector<GeneratorCase> cases;
  std::vector<bench::DatasetSpec> specs = bench::StandardDatasets(0.1);
  specs.push_back(bench::MazeSpec(0.1));
  for (const bench::DatasetSpec& spec : specs) {
    cases.push_back({spec.name, spec.eps, spec.tau, spec.window,
                     [make = spec.make] { return make(7); }});
  }
  cases.push_back({"blobs", 0.4, 5, 600, [] {
                     BlobsGenerator::Options o;
                     o.num_blobs = 6;
                     o.extent = 10.0;
                     o.stddev = 0.35;
                     o.noise_fraction = 0.15;
                     o.seed = 7;
                     return std::make_unique<BlobsGenerator>(o);
                   }});
  cases.push_back({"drifting", 0.4, 5, 600, [] {
                     BlobsGenerator::Options o;
                     o.num_blobs = 4;
                     o.extent = 8.0;
                     o.stddev = 0.3;
                     o.noise_fraction = 0.1;
                     o.drift = 0.05;
                     o.seed = 7;
                     return std::make_unique<BlobsGenerator>(o);
                   }});
  cases.push_back({"netflow", 0.3, 5, 800, [] {
                     NetflowGenerator::Options o;
                     o.burst_every = 400;
                     o.burst_length = 150;
                     o.seed = 7;
                     return std::make_unique<NetflowGenerator>(o);
                   }});
  cases.push_back({"uniform", 0.4, 5, 600, [] {
                     return std::make_unique<UniformGenerator>(2, 0.0, 6.0, 7);
                   }});
  return cases;
}

TEST(SnapshotColumnTest, MatchesCheckpointTwinAfterEverySlideOnAllGenerators) {
  for (const GeneratorCase& gc : AllGenerators()) {
    auto source = gc.make();
    const std::size_t stride = gc.window / 10;
    std::vector<Point> first = source->NextPoints(stride);
    const std::uint32_t dims = first.front().dims;
    DiscConfig config;
    config.eps = gc.eps;
    config.tau = gc.tau;
    Disc disc(dims, config);
    CountBasedWindow window(gc.window, stride);
    for (int s = 0; s < 16; ++s) {
      std::vector<Point> next =
          s == 0 ? std::move(first) : source->NextPoints(stride);
      const WindowDelta d = window.Advance(std::move(next));
      disc.Update(d.incoming, d.outgoing);
      ExpectSnapshotMatchesTwin(disc, dims,
                                gc.name + " slide " + std::to_string(s));
    }
  }
}

// A hostile caller: every slide inserts a shuffled batch whose ids mix
// fresh ones with re-entering low ids (so new ids land between existing
// ones), repeats ids already in the window or earlier in the batch, sends a
// non-finite point, and removes a scattered sample of the window together
// with ids that never entered or already left.
TEST(SnapshotColumnTest, MatchesCheckpointTwinOnMisuseStreams) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    BlobsGenerator::Options o;
    o.num_blobs = 5;
    o.extent = 6.0;
    o.stddev = 0.3;
    o.noise_fraction = 0.1;
    o.drift = 0.03;
    o.seed = seed;
    BlobsGenerator source(o);
    Rng rng(seed * 7919);
    DiscConfig config;
    config.eps = 0.4;
    config.tau = 4;
    Disc disc(2, config);

    std::map<PointId, Point> window;  // What the caller believes is inside.
    std::vector<PointId> left;        // Ids that exited; they may re-enter.
    PointId next_id = 1000;
    for (int s = 0; s < 40; ++s) {
      std::vector<Point> incoming;
      for (Point p : source.NextPoints(60)) {
        if (!left.empty() && rng.Bernoulli(0.25)) {
          const auto k =
              rng.UniformInt(0, static_cast<std::int64_t>(left.size()) - 1);
          p.id = left[static_cast<std::size_t>(k)];
          left.erase(left.begin() + k);
        } else {
          p.id = next_id++;
        }
        incoming.push_back(p);
      }
      if (!window.empty()) {
        Point dup = window.begin()->second;  // Already in the window.
        dup.x[0] += 0.01;
        incoming.push_back(dup);
      }
      incoming.push_back(incoming.front());  // Repeated within the batch.
      Point bad = incoming.back();
      bad.id = next_id++;
      bad.x[1] = std::numeric_limits<double>::quiet_NaN();
      incoming.push_back(bad);
      for (std::size_t i = incoming.size(); i > 1; --i) {
        const auto j = rng.UniformInt(0, static_cast<std::int64_t>(i) - 1);
        std::swap(incoming[i - 1], incoming[static_cast<std::size_t>(j)]);
      }

      std::vector<Point> outgoing;
      if (window.size() > 300) {
        for (const auto& [id, p] : window) {
          if (rng.Bernoulli(0.2)) outgoing.push_back(p);
        }
      }
      Point unknown = incoming.front();
      unknown.id = 1u << 30;  // Never entered.
      outgoing.push_back(unknown);
      if (!left.empty()) {
        Point gone = unknown;
        gone.id = left.back();  // Already left.
        outgoing.push_back(gone);
      }
      std::reverse(outgoing.begin(), outgoing.end());

      const UpdateDelta& delta = disc.Update(incoming, outgoing);
      for (PointId id : delta.exited) {
        window.erase(id);
        left.push_back(id);
      }
      for (PointId id : delta.entered) {
        auto it = std::find_if(incoming.begin(), incoming.end(),
                               [id](const Point& p) { return p.id == id; });
        window.emplace(id, *it);
      }
      ASSERT_EQ(window.size(), disc.window_size());
      ExpectSnapshotMatchesTwin(
          disc, 2,
          "seed " + std::to_string(seed) + " slide " + std::to_string(s));
    }
  }
}

}  // namespace
}  // namespace disc
