// The paper's central claim (Sec. I, Sec. V): after every window slide, DISC
// produces exactly the clustering DBSCAN computes from scratch. These
// property tests drive DISC over randomized streams under many parameter
// combinations and check equivalence after each slide, with all four
// optimization settings.

#include <memory>
#include <string>
#include <vector>

#include "baselines/dbscan.h"
#include "core/disc.h"
#include "eval/equivalence.h"
#include "gtest/gtest.h"
#include "stream/blobs_generator.h"
#include "stream/maze_generator.h"
#include "stream/sliding_window.h"
#include "stream/stream_source.h"

namespace disc {
namespace {

// gtest_discover_tests registers each case under a name that embeds gtest's
// byte dump of this struct. `name_tag` leads the struct so that dump starts
// with fixed bytes, not with the heap address held by `name`; otherwise the
// registered names change from one build to the next. Its value and the
// struct size keep the names the sweep has always been registered under.
struct ParamCase {
  std::uint16_t name_tag = 0xA840;
  bool use_msbfs;
  bool use_epoch;
  std::uint32_t tau;
  std::string name;
  double eps;
  std::size_t window;
  std::size_t stride;
  int generator;  // 0: blobs, 1: drifting blobs, 2: maze, 3: uniform.
  std::uint32_t dims;
  std::uint32_t seed = 99;
};
static_assert(sizeof(ParamCase) == 80, "the size is part of each test name");

std::unique_ptr<StreamSource> MakeSource(const ParamCase& pc,
                                         std::uint64_t seed) {
  switch (pc.generator) {
    case 0: {
      BlobsGenerator::Options o;
      o.dims = pc.dims;
      o.num_blobs = 6;
      o.extent = 10.0;
      o.stddev = 0.35;
      o.noise_fraction = 0.15;
      o.seed = seed;
      return std::make_unique<BlobsGenerator>(o);
    }
    case 1: {
      BlobsGenerator::Options o;
      o.dims = pc.dims;
      o.num_blobs = 4;
      o.extent = 8.0;
      o.stddev = 0.3;
      o.noise_fraction = 0.1;
      o.drift = 0.05;  // Forces splits/merges/dissipations.
      o.seed = seed;
      return std::make_unique<BlobsGenerator>(o);
    }
    case 2: {
      MazeGenerator::Options o;
      o.num_seeds = 8;
      o.extent = 12.0;
      o.step = 0.08;
      o.jitter = 0.03;
      o.points_per_step = 3;
      o.seed = seed;
      return std::make_unique<MazeGenerator>(o);
    }
    default:
      return std::make_unique<UniformGenerator>(pc.dims, 0.0, 6.0, seed);
  }
}

class DiscEquivalenceTest : public ::testing::TestWithParam<ParamCase> {};

TEST_P(DiscEquivalenceTest, MatchesFreshDbscanAfterEverySlide) {
  const ParamCase& pc = GetParam();
  auto source = MakeSource(pc, pc.seed);

  DiscConfig config;
  config.eps = pc.eps;
  config.tau = pc.tau;
  config.use_msbfs = pc.use_msbfs;
  config.use_epoch_probing = pc.use_epoch;
  Disc disc(pc.dims, config);

  // Twin instance: identical config except it runs on a thread pool. Every
  // oracle comparison below also executes the parallel configuration, and
  // the twin must stay byte-identical to the single-threaded instance.
  DiscConfig par_config = config;
  par_config.num_threads = 4;
  Disc par_disc(pc.dims, par_config);

  CountBasedWindow window(pc.window, pc.stride);
  const int slides = 12;
  for (int s = 0; s < slides; ++s) {
    WindowDelta delta = window.Advance(source->NextPoints(pc.stride));
    disc.Update(delta.incoming, delta.outgoing);
    par_disc.Update(delta.incoming, delta.outgoing);

    std::vector<Point> contents(window.contents().begin(),
                                window.contents().end());
    const DbscanResult truth = RunDbscan(contents, pc.eps, pc.tau);
    const EquivalenceResult eq = CheckSameClustering(
        disc.Snapshot(), truth.snapshot, contents, pc.eps);
    ASSERT_TRUE(eq.ok) << "slide " << s << " [" << pc.name << "] seed "
                       << pc.seed << ": " << eq.error;
    const EquivalenceResult par_eq = CheckSameClustering(
        par_disc.Snapshot(), truth.snapshot, contents, pc.eps);
    ASSERT_TRUE(par_eq.ok) << "slide " << s << " [" << pc.name << "] seed "
                           << pc.seed << " (num_threads=4): " << par_eq.error;
    const ClusteringSnapshot a = disc.Snapshot();
    const ClusteringSnapshot b = par_disc.Snapshot();
    ASSERT_TRUE(a.ids == b.ids && a.categories == b.categories &&
                a.cids == b.cids)
        << "slide " << s << " [" << pc.name << "] seed " << pc.seed
        << ": num_threads=4 snapshot diverged from num_threads=1";
  }
}

std::vector<ParamCase> MakeCases() {
  std::vector<ParamCase> cases;
  // Base grid: generators x optimization settings (MS-BFS, epoch probing)
  // x two stream seeds (bit 2 of `opt`).
  int idx = 0;
  for (int gen = 0; gen <= 3; ++gen) {
    for (int opt = 0; opt < 8; ++opt) {
      ParamCase pc;
      pc.generator = gen;
      pc.use_msbfs = (opt & 1) != 0;
      pc.use_epoch = (opt & 2) != 0;
      pc.seed = (opt & 4) != 0 ? 99 : 7;
      pc.eps = gen == 3 ? 0.45 : 0.4;
      pc.tau = 5;
      pc.window = 600;
      pc.stride = 60;
      pc.dims = 2;
      pc.name = "gen" + std::to_string(gen) + "_opt" + std::to_string(opt) +
                "_" + std::to_string(idx++);
      cases.push_back(pc);
    }
  }
  // Stride extremes: tiny stride and stride == window (full turnover).
  for (std::size_t stride : {10UL, 300UL, 600UL}) {
    ParamCase pc;
    pc.generator = 1;
    pc.use_msbfs = true;
    pc.use_epoch = true;
    pc.eps = 0.4;
    pc.tau = 4;
    pc.window = 600;
    pc.stride = stride;
    pc.dims = 2;
    pc.name = "stride" + std::to_string(stride);
    cases.push_back(pc);
  }
  // Density threshold extremes.
  for (std::uint32_t tau : {1U, 2U, 12U}) {
    ParamCase pc;
    pc.generator = 0;
    pc.use_msbfs = true;
    pc.use_epoch = true;
    pc.eps = 0.35;
    pc.tau = tau;
    pc.window = 500;
    pc.stride = 50;
    pc.dims = 2;
    pc.name = "tau" + std::to_string(tau);
    cases.push_back(pc);
  }
  // Higher dimensions.
  for (std::uint32_t dims : {3U, 4U}) {
    ParamCase pc;
    pc.generator = 0;
    pc.use_msbfs = true;
    pc.use_epoch = true;
    pc.eps = 0.8;
    pc.tau = 4;
    pc.window = 500;
    pc.stride = 50;
    pc.dims = dims;
    pc.name = "dims" + std::to_string(dims);
    cases.push_back(pc);
  }
  // Epsilon extremes: near-zero neighborhoods and near-global ones.
  for (double eps : {0.05, 2.5}) {
    ParamCase pc;
    pc.generator = 0;
    pc.use_msbfs = true;
    pc.use_epoch = true;
    pc.eps = eps;
    pc.tau = 4;
    pc.window = 400;
    pc.stride = 80;
    pc.dims = 2;
    pc.name = "eps" + std::to_string(static_cast<int>(eps * 100));
    cases.push_back(pc);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DiscEquivalenceTest,
                         ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<ParamCase>& param_info) {
                           return param_info.param.name;
                         });

}  // namespace
}  // namespace disc
