// Determinism layer across lane counts: snapshots, checkpoints, deltas,
// events, and the deterministic metrics must be byte-identical for every
// DiscConfig::num_threads value — on every synthetic generator and on
// adversarial slides engineered to force multi-starter MS-BFS front meets
// and neo-core merge storms. Only COLLECT fans out (CLUSTER is sequential),
// and num_threads = 1 runs every probe inline, so the sweeps also pin
// inline against pooled probes.

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/disc.h"
#include "gtest/gtest.h"
#include "stream/blobs_generator.h"
#include "stream/maze_generator.h"
#include "stream/sliding_window.h"
#include "stream/stream_source.h"

namespace disc {
namespace {

// Canonical serialization of everything observable after one Update. Unlike
// parallel_test.cc's helper this does NOT sort the delta vectors: emission
// ORDER is part of the determinism contract here. The metrics suffix pins
// the probe-accounting discipline — only deterministic counters appear
// (the *_ms timings are timing-dependent by design).
std::string CanonicalState(const Disc& disc, const UpdateDelta& delta) {
  std::ostringstream os;
  const ClusteringSnapshot snap = disc.Snapshot();  // Emitted id-sorted.
  for (std::size_t i = 0; i < snap.ids.size(); ++i) {
    os << snap.ids[i] << ':' << static_cast<int>(snap.categories[i]) << ':'
       << snap.cids[i] << ';';
  }
  auto dump = [&os](const std::vector<PointId>& ids) {
    os << '|';
    for (PointId id : ids) os << id << ',';
  };
  dump(delta.entered);
  dump(delta.exited);
  dump(delta.relabeled);
  os << '|';
  for (const ClusterEvent& ev : disc.last_events()) {
    os << static_cast<int>(ev.type) << '(';
    for (ClusterId cid : ev.cids) os << cid << ',';
    os << ')';
  }
  const DiscMetrics& m = disc.last_metrics();
  os << '|' << m.range_searches << ',' << m.collect_searches << ','
     << m.cluster_searches << ',' << m.num_ex_cores << ',' << m.num_neo_cores
     << ',' << m.num_ex_groups << ',' << m.num_neo_groups << ','
     << m.msbfs_expansions << ',' << m.msbfs_rounds << ','
     << m.survivor_reconciliations << ',' << m.nodes_visited << ','
     << m.entries_checked << ',' << m.leaf_entries_tested << ','
     << m.epoch_pruned;
  return os.str();
}

std::string CheckpointBytes(const Disc& disc) {
  std::ostringstream os;
  EXPECT_TRUE(disc.SaveCheckpoint(os).ok());
  return os.str();
}

// ---------------------------------------------------------------------------
// Full-pipeline sweep over every synthetic generator
// ---------------------------------------------------------------------------

struct SweepCase {
  std::string name;
  int generator;  // 0: blobs, 1: drifting blobs, 2: maze, 3: uniform.
};

std::unique_ptr<StreamSource> MakeSource(int generator, std::uint64_t seed) {
  switch (generator) {
    case 0: {
      BlobsGenerator::Options o;
      o.dims = 2;
      o.num_blobs = 6;
      o.extent = 10.0;
      o.stddev = 0.35;
      o.noise_fraction = 0.15;
      o.seed = seed;
      return std::make_unique<BlobsGenerator>(o);
    }
    case 1: {
      BlobsGenerator::Options o;
      o.dims = 2;
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
      return std::make_unique<UniformGenerator>(2, 0.0, 6.0, seed);
  }
}

struct PipelineRun {
  std::vector<std::string> per_slide;  // CanonicalState after each Update.
  std::string checkpoint;              // SaveCheckpoint bytes at the end.
};

PipelineRun RunPipeline(const SweepCase& sc, std::uint32_t num_threads,
                        std::uint64_t seed) {
  auto source = MakeSource(sc.generator, seed);
  DiscConfig config;
  config.eps = 0.4;
  config.tau = 5;
  config.num_threads = num_threads;
  Disc disc(2, config);
  CountBasedWindow window(600, 100);
  PipelineRun run;
  for (int s = 0; s < 12; ++s) {
    WindowDelta d = window.Advance(source->NextPoints(100));
    const UpdateDelta& delta = disc.Update(d.incoming, d.outgoing);
    run.per_slide.push_back(CanonicalState(disc, delta));
  }
  run.checkpoint = CheckpointBytes(disc);
  return run;
}

class ParallelClusterSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ParallelClusterSweepTest, ByteIdenticalAcrossThreadCounts) {
  const SweepCase& sc = GetParam();
  const std::uint64_t seed = 99;
  const PipelineRun baseline = RunPipeline(sc, 1, seed);
  for (std::uint32_t threads : {2u, 4u, 8u}) {
    const PipelineRun run = RunPipeline(sc, threads, seed);
    ASSERT_EQ(run.per_slide.size(), baseline.per_slide.size());
    for (std::size_t s = 0; s < run.per_slide.size(); ++s) {
      ASSERT_EQ(run.per_slide[s], baseline.per_slide[s])
          << sc.name << " seed " << seed << " slide " << s << " threads "
          << threads;
    }
    ASSERT_EQ(run.checkpoint, baseline.checkpoint)
        << sc.name << " seed " << seed << " threads " << threads
        << ": checkpoint bytes diverged";
  }
}

std::vector<SweepCase> MakeSweepCases() {
  std::vector<SweepCase> cases;
  const char* gens[] = {"blobs", "drifting", "maze", "uniform"};
  for (int gen = 0; gen <= 3; ++gen) {
    SweepCase sc;
    sc.generator = gen;
    sc.name = std::string(gens[gen]) + "_par";
    cases.push_back(sc);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Generators, ParallelClusterSweepTest,
                         ::testing::ValuesIn(MakeSweepCases()),
                         [](const ::testing::TestParamInfo<SweepCase>& param_info) {
                           return param_info.param.name;
                         });

// ---------------------------------------------------------------------------
// Adversarial bridge storm: forced MS-BFS front meets and merge storms
// ---------------------------------------------------------------------------

// A chain of dense clumps along a line, connected end to end. Sliding out
// every third clump shatters the single chain cluster into ~kClumps/3
// components in ONE update — a multi-starter MS-BFS where many fronts
// expand simultaneously and every surviving segment boundary is a front
// meet. Sliding fresh clumps back in re-merges all segments in one update —
// a neo-core merge storm whose cid_list spans every surviving cluster.
class BridgeStorm {
 public:
  static constexpr int kClumps = 30;
  static constexpr int kPointsPerClump = 5;

  explicit BridgeStorm(std::uint32_t num_threads) {
    DiscConfig config;
    config.eps = 0.3;
    config.tau = 3;
    config.num_threads = num_threads;
    disc_ = std::make_unique<Disc>(2, config);
  }

  // Clump points sit within 0.1 of their center; centers are 0.25 apart, so
  // adjacent clumps chain (eps = 0.3) but clumps two apart (0.5) do not.
  std::vector<Point> MakeClump(int clump) {
    std::vector<Point> pts;
    for (int j = 0; j < kPointsPerClump; ++j) {
      Point p;
      p.id = next_id_++;
      p.dims = 2;
      p.x[0] = 0.25 * clump + 0.02 * j;
      p.x[1] = 0.05 * ((j % 2 == 0) ? j : -j);
      pts.push_back(p);
    }
    return pts;
  }

  std::vector<std::string> Run() {
    std::vector<std::string> trace;
    std::vector<std::vector<Point>> clump_pts(kClumps);
    // One long chain cluster.
    std::vector<Point> incoming;
    for (int c = 0; c < kClumps; ++c) {
      clump_pts[c] = MakeClump(c);
      incoming.insert(incoming.end(), clump_pts[c].begin(),
                      clump_pts[c].end());
    }
    trace.push_back(CanonicalState(*disc_, disc_->Update(incoming, {})));

    for (int cycle = 0; cycle < 9; ++cycle) {
      const int phase = cycle % 3;
      // Shatter: every clump with index % 3 == phase leaves at once.
      std::vector<Point> outgoing;
      for (int c = phase; c < kClumps; c += 3) {
        outgoing.insert(outgoing.end(), clump_pts[c].begin(),
                        clump_pts[c].end());
        clump_pts[c].clear();
      }
      trace.push_back(CanonicalState(*disc_, disc_->Update({}, outgoing)));
      // Re-bridge: fresh points (new ids) at the same centers merge every
      // segment back into one chain.
      incoming.clear();
      for (int c = phase; c < kClumps; c += 3) {
        clump_pts[c] = MakeClump(c);
        incoming.insert(incoming.end(), clump_pts[c].begin(),
                        clump_pts[c].end());
      }
      trace.push_back(CanonicalState(*disc_, disc_->Update(incoming, {})));
    }
    trace.push_back(CheckpointBytes(*disc_));
    return trace;
  }

  Disc& disc() { return *disc_; }

 private:
  std::unique_ptr<Disc> disc_;
  PointId next_id_ = 0;
};

TEST(BridgeStormTest, ShatterAndRemergeIsThreadCountDeterministic) {
  BridgeStorm base_storm(1);
  const std::vector<std::string> baseline = base_storm.Run();
  for (std::uint32_t threads : {2u, 4u, 8u}) {
    BridgeStorm storm(threads);
    const std::vector<std::string> trace = storm.Run();
    ASSERT_EQ(trace.size(), baseline.size());
    for (std::size_t s = 0; s < trace.size(); ++s) {
      ASSERT_EQ(trace[s], baseline[s]) << "threads " << threads << " step "
                                       << s;
    }
  }
}

TEST(BridgeStormTest, ShatterActuallyExercisesMultiStarterMsBfs) {
  // Guard against the scenario silently degenerating: the shatter slide must
  // run a split (several MS-BFS components) and the re-bridge slide a merge.
  bool saw_split = false;
  bool saw_merge = false;
  BridgeStorm probe(4);
  std::vector<std::vector<Point>> clump_pts(BridgeStorm::kClumps);
  std::vector<Point> incoming;
  for (int c = 0; c < BridgeStorm::kClumps; ++c) {
    clump_pts[c] = probe.MakeClump(c);
    incoming.insert(incoming.end(), clump_pts[c].begin(), clump_pts[c].end());
  }
  Disc& disc = probe.disc();
  disc.Update(incoming, {});
  std::vector<Point> outgoing;
  for (int c = 0; c < BridgeStorm::kClumps; c += 3) {
    outgoing.insert(outgoing.end(), clump_pts[c].begin(), clump_pts[c].end());
  }
  disc.Update({}, outgoing);
  for (const ClusterEvent& ev : disc.last_events()) {
    if (ev.type == ClusterEventType::kSplit) saw_split = true;
  }
  EXPECT_TRUE(saw_split) << "shatter slide produced no split";
  EXPECT_GT(disc.last_metrics().msbfs_rounds, 0u);
  incoming.clear();
  for (int c = 0; c < BridgeStorm::kClumps; c += 3) {
    const std::vector<Point> fresh = probe.MakeClump(c);
    incoming.insert(incoming.end(), fresh.begin(), fresh.end());
  }
  disc.Update(incoming, {});
  for (const ClusterEvent& ev : disc.last_events()) {
    if (ev.type == ClusterEventType::kMerge) saw_merge = true;
  }
  EXPECT_TRUE(saw_merge) << "re-bridge slide produced no merge";
}

}  // namespace
}  // namespace disc
