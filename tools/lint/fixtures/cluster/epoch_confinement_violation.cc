// Golden violation for the epoch-confinement rule in the CLUSTER stage:
// epoch ticks and epoch-probed searches inside MS-BFS, the neo-core phase,
// and the speculative neo-discovery worker. All three run tick-free
// concurrent probes — writing entry epochs there races with in-flight
// readers.
#include <cstdint>
#include <vector>

struct Tree {
  std::uint64_t NewTick();
  void EpochRangeSearch(int center, double eps, std::uint64_t tick);
  void RangeSearch(int center, double eps) const;
};

struct Clusterer {
  Tree tree_;

  int MsBfs(const std::vector<int>& m_minus) {
    // VIOLATION: the rounds fan probes out to pool lanes; a tick here
    // mutates epoch state while concurrent readers may be in flight.
    const std::uint64_t tick = tree_.NewTick();
    for (int center : m_minus) {
      tree_.EpochRangeSearch(center, 1.0, tick);  // VIOLATION: epoch probe.
    }
    return 1;
  }

  void ProcessNeoCores(const std::vector<int>& neo_cores) {
    for (int seed : neo_cores) {
      SearchMarking(seed, 0);  // VIOLATION: epoch-marking in the neo phase.
    }
  }

  void NeoDiscoveryWorker(int seed) {
    // VIOLATION: speculative discovery runs on worker lanes concurrently.
    tree_.EpochRangeSearch(seed, 1.0, 0);
  }

  void SearchMarking(int center, std::uint64_t tick);
};
