// The paper's Fig. 8 claim in counter form: with both Section-IV
// optimizations on, CLUSTER issues fewer range searches and tests fewer
// leaf entries than with both off, and MS-BFS expands no more vertices than
// repeated single-source BFS. Counters are deterministic, so the gate never
// depends on timing. Registered under the ctest label `claims`.
//
// Setup: 1 lane, the four real-dataset analogues at scale 0.25, a 5%
// stride, and 10 measured slides once the window is full.

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/datasets.h"
#include "core/disc.h"
#include "gtest/gtest.h"
#include "stream/sliding_window.h"

namespace disc {
namespace {

constexpr double kScale = 0.25;
constexpr int kMeasuredSlides = 10;

struct Totals {
  std::uint64_t cluster_searches = 0;
  std::uint64_t leaf_entries_tested = 0;
  std::uint64_t msbfs_expansions = 0;
};

Totals Measure(const bench::DatasetSpec& spec, bool msbfs, bool epoch) {
  DiscConfig config;
  config.eps = spec.eps;
  config.tau = spec.tau;
  config.use_msbfs = msbfs;
  config.use_epoch_probing = epoch;
  Disc disc(spec.dims, config);
  const std::size_t stride = spec.window / 20;
  CountBasedWindow window(spec.window, stride);
  auto source = spec.make(1234);
  const int fill_slides = static_cast<int>(spec.window / stride);
  Totals t;
  for (int s = 0; s < fill_slides + kMeasuredSlides; ++s) {
    const WindowDelta d = window.Advance(source->NextPoints(stride));
    disc.Update(d.incoming, d.outgoing);
    if (s < fill_slides) continue;
    const DiscMetrics& m = disc.last_metrics();
    t.cluster_searches += m.cluster_searches;
    t.leaf_entries_tested += m.leaf_entries_tested;
    t.msbfs_expansions += m.msbfs_expansions;
  }
  return t;
}

bench::DatasetSpec SpecNamed(const std::string& name) {
  for (const bench::DatasetSpec& spec : bench::StandardDatasets(kScale)) {
    if (spec.name == name) return spec;
  }
  ADD_FAILURE() << "no dataset named " << name;
  return bench::DtgSpec(kScale);
}

// Parameterized by dataset name: a printable value keeps the registered
// test names stable from build to build.
class Fig8ClaimTest : public ::testing::TestWithParam<std::string> {};

TEST_P(Fig8ClaimTest, OptimizationsCutClusterWork) {
  const bench::DatasetSpec spec = SpecNamed(GetParam());
  const Totals none = Measure(spec, /*msbfs=*/false, /*epoch=*/false);
  const Totals repeated_bfs = Measure(spec, /*msbfs=*/false, /*epoch=*/true);
  const Totals both = Measure(spec, /*msbfs=*/true, /*epoch=*/true);
  std::printf(
      "%s: cluster_searches both %llu none %llu; leaf_entries_tested both "
      "%llu none %llu; msbfs_expansions msbfs %llu repeated-BFS %llu\n",
      spec.name.c_str(),
      static_cast<unsigned long long>(both.cluster_searches),
      static_cast<unsigned long long>(none.cluster_searches),
      static_cast<unsigned long long>(both.leaf_entries_tested),
      static_cast<unsigned long long>(none.leaf_entries_tested),
      static_cast<unsigned long long>(both.msbfs_expansions),
      static_cast<unsigned long long>(repeated_bfs.msbfs_expansions));
  EXPECT_LT(both.cluster_searches, none.cluster_searches);
  EXPECT_LT(both.leaf_entries_tested, none.leaf_entries_tested);
  EXPECT_LE(both.msbfs_expansions, repeated_bfs.msbfs_expansions);
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, Fig8ClaimTest,
    ::testing::Values("DTG", "GeoLife", "COVID-19", "IRIS"),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name;
      for (char c : param_info.param) {
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      }
      return name;
    });

}  // namespace
}  // namespace disc
