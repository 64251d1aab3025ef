// Clean twin for the CLUSTER epoch-confinement pair: MS-BFS and the
// neo-core closures run on the calling thread and epoch-probe under one
// tick per traversal (Alg. 4); only the COLLECT fan-out runs on lanes, and
// it issues tick-free (const) probes.
#include <cstdint>
#include <vector>

struct Tree {
  std::uint64_t NewTick();
  void RangeSearch(int center, double eps) const;
};

struct Clusterer {
  Tree tree_;

  int MsBfs(const std::vector<int>& m_minus) {
    const std::uint64_t tick = tree_.NewTick();
    for (int center : m_minus) SearchMarking(center, tick);
    return 1;
  }

  void ProcessNeoGroup(int seed) {
    SearchMarking(seed, tree_.NewTick());
  }

  void FanOutProbes(const std::vector<int>& centers) {
    for (int center : centers) {
      tree_.RangeSearch(center, 1.0);  // Const probe: no epoch writes.
    }
  }

  void SearchMarking(int center, std::uint64_t tick);
};
