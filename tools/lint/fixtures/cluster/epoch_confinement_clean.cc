// Clean twin for the CLUSTER epoch-confinement pair: MS-BFS, the probe
// fan-out, the neo-core phase, and the neo-discovery worker issue tick-free
// (const) probes only; epoch ticks stay on the single-source BFS, which
// never overlaps concurrent readers.
#include <cstdint>
#include <vector>

struct Tree {
  std::uint64_t NewTick();
  void EpochRangeSearch(int center, double eps, std::uint64_t tick);
  void RangeSearch(int center, double eps) const;
};

struct Clusterer {
  Tree tree_;

  int SequentialBfs(const std::vector<int>& m_minus) {
    // Sequential traversal: epoch probing is the point (Alg. 4).
    const std::uint64_t tick = tree_.NewTick();
    for (int center : m_minus) {
      tree_.EpochRangeSearch(center, 1.0, tick);
    }
    return 1;
  }

  int MsBfs(const std::vector<int>& m_minus) {
    FanOutProbes(m_minus);  // Tick-free rounds only.
    return 1;
  }

  void FanOutProbes(const std::vector<int>& centers) {
    for (int center : centers) {
      tree_.RangeSearch(center, 1.0);  // Const probe: no epoch writes.
    }
  }

  void ProcessNeoCores(const std::vector<int>& neo_cores) {
    for (int seed : neo_cores) NeoDiscoveryWorker(seed);
  }

  void NeoDiscoveryWorker(int seed) {
    tree_.RangeSearch(seed, 1.0);  // Tick-free speculative discovery.
  }
};
