// Golden violation for the epoch-confinement rule in the CLUSTER stage:
// a CLUSTER traversal that hands its epoch-marking probes to the COLLECT
// fan-out or to pool lanes. Writing entry epochs there races with the
// other in-flight readers.
#include <cstdint>
#include <vector>

struct Tree {
  std::uint64_t NewTick();
  void RangeSearch(int center, double eps) const;
};

struct Clusterer {
  Tree tree_;

  void FanOutProbes(const std::vector<int>& centers, std::uint64_t tick) {
    for (int center : centers) {
      SearchMarking(center, tick);  // VIOLATION: inside the probe fan-out.
    }
  }

  int MsBfs(const std::vector<int>& m_minus) {
    const std::uint64_t tick = tree_.NewTick();
    ParallelFor(nullptr, m_minus.size(), [&](std::size_t, std::size_t i) {
      // VIOLATION: epoch-marking probe on a pool lane.
      SearchMarking(m_minus[i], tick);
    });
    return 1;
  }

  void SearchMarking(int center, std::uint64_t tick);

  template <typename Fn>
  static void ParallelFor(void* pool, std::size_t n, const Fn& fn);
};
