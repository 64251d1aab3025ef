#ifndef DISC_INDEX_RTREE_H_
#define DISC_INDEX_RTREE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/point.h"
#include "common/thread_annotations.h"

namespace disc {

// Axis-aligned bounding box over the first `dims` coordinates (the
// dimensionality is carried by the owning RTree).
struct Rect {
  std::array<double, kMaxDims> lo{};
  std::array<double, kMaxDims> hi{};
};

// Statistics about index probes, used to reproduce the paper's range-search
// counts (Fig. 7) and to quantify the benefit of epoch-based probing: the
// drill-down counters explain the Fig. 8 ablation from counts instead of
// wall-clock (leaf entries actually distance-tested, and entries whose
// subtree an epoch check pruned away).
struct RTreeStats {
  std::uint64_t range_searches = 0;
  std::uint64_t nodes_visited = 0;
  std::uint64_t entries_checked = 0;
  // Leaf entries whose point was distance-tested against the query.
  std::uint64_t leaf_entries_tested = 0;
  // Entries (leaf points or whole subtrees) skipped because their epoch was
  // already at the current tick — Algorithm 4's pruning, the quantity the
  // use_epoch_probing toggle trades probes for.
  std::uint64_t epoch_pruned = 0;

  void Reset() { *this = RTreeStats{}; }

  // Folds another accumulator in — used to merge per-thread counters from
  // concurrent read-only searches back into the tree's shared statistics.
  void MergeFrom(const RTreeStats& other) {
    range_searches += other.range_searches;
    nodes_visited += other.nodes_visited;
    entries_checked += other.entries_checked;
    leaf_entries_tested += other.leaf_entries_tested;
    epoch_pruned += other.epoch_pruned;
  }
};

// Node-splitting heuristic used on overflow.
enum class SplitPolicy {
  kQuadratic,  // Guttman '84: seeds with maximal dead area (default).
  kRStar,      // Beckmann et al. '90: min-margin axis, min-overlap split.
};

// In-memory R-tree over points with configurable node splitting, deletion
// with subtree re-insertion, epsilon-range search, k-nearest-neighbor
// search, STR bulk loading, and the paper's epoch-based probing
// (Algorithm 4): every entry carries an epoch; a search running under tick T
// skips entries whose epoch >= T, and on backtracking each internal entry's
// epoch is restored to the minimum of its child entries' epochs.
//
// The tree is not thread-safe. Ids must be unique among indexed points.
class RTree {
 public:
  // Callback for range searches. Receives the id and coordinates of each
  // point within the query ball.
  using Visitor = std::function<void(PointId, const Point&)>;

  // Callback for epoch-probed searches. Returns true if the visited leaf
  // entry should be marked with the current tick (i.e., excluded from all
  // later searches under the same tick).
  using MarkingVisitor = std::function<bool(PointId, const Point&)>;

  explicit RTree(std::uint32_t dims, int max_entries = 16,
                 SplitPolicy split_policy = SplitPolicy::kQuadratic);
  ~RTree();

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  // Inserts p. Behaviour is undefined if a point with the same id is already
  // present (the tree does not deduplicate ids).
  void Insert(const Point& p) EXCLUDES(probe_region_);

  // Builds the tree from `points` using Sort-Tile-Recursive packing — much
  // faster and better-packed than repeated Insert for a static load. The
  // tree must be empty. Subsequent Insert/Delete calls work normally.
  void BulkLoad(std::vector<Point> points) EXCLUDES(probe_region_);

  // Removes the point with p's id located at p's coordinates. Returns false
  // if no such point exists.
  bool Delete(const Point& p) EXCLUDES(probe_region_);

  // Removes every point. Tick counter and statistics are preserved.
  void Clear() EXCLUDES(probe_region_);

  // Visits every indexed point within Euclidean distance eps of center.
  void RangeSearch(const Point& center, double eps, const Visitor& visit) const;

  // Re-entrant variant for concurrent readers: probe counters accumulate
  // into *stats instead of the tree's shared counters. As long as the tree
  // is not mutated (and no epoch-probed search runs — it writes entry
  // epochs), any number of threads may call this at once, each with its own
  // accumulator; merge the accumulators into stats() afterwards if the
  // global counts should reflect the probes. This is the *tick-free probe
  // mode* the parallel COLLECT fan-out relies on; hold a ConcurrentProbeScope
  // around the fan-out to have the contract machine-checked.
  void RangeSearch(const Point& center, double eps, const Visitor& visit,
                   RTreeStats* stats) const;

  // RAII marker of a tick-free concurrent probe region (the parallel
  // COLLECT fan-out). While at least one scope is alive, any number
  // of threads may run the stats-accumulating RangeSearch overload; every
  // mutating or epoch-marking call (Insert, Delete, BulkLoad, Clear,
  // EpochRangeSearch, NewTick) asserts in debug builds. The counter is
  // purely a contract check — it adds no synchronization of its own. To
  // Clang's thread-safety analysis the scope reads as a shared hold of the
  // tree's probe_region_ capability, so mutators (EXCLUDES(probe_region_))
  // are rejected at compile time when a scope is provably alive.
  class SCOPED_CAPABILITY ConcurrentProbeScope {
   public:
    explicit ConcurrentProbeScope(const RTree& tree)
        ACQUIRE_SHARED(tree.probe_region_)
        : tree_(tree) {
      tree_.probe_scopes_.fetch_add(1, std::memory_order_relaxed);
    }
    ~ConcurrentProbeScope() RELEASE() {
      tree_.probe_scopes_.fetch_sub(1, std::memory_order_relaxed);
    }
    ConcurrentProbeScope(const ConcurrentProbeScope&) = delete;
    ConcurrentProbeScope& operator=(const ConcurrentProbeScope&) = delete;

   private:
    const RTree& tree_;
  };

  // A point together with its distance to a query center.
  struct Neighbor {
    PointId id = 0;
    double distance = 0.0;
  };

  // Returns the k nearest indexed points to `center` (fewer when the tree
  // holds fewer than k), ordered by ascending distance. A point with
  // center's id is not excluded — callers filter if needed. Best-first
  // branch-and-bound traversal.
  std::vector<Neighbor> NearestNeighbors(const Point& center,
                                         std::size_t k) const;

  // Epoch-probed variant: skips any entry whose epoch >= tick, marks visited
  // leaf entries when the visitor returns true, and propagates minimum epochs
  // to internal entries on backtracking. Ticks must come from NewTick().
  void EpochRangeSearch(const Point& center, double eps, std::uint64_t tick,
                        const MarkingVisitor& visit) EXCLUDES(probe_region_);

  // Returns a fresh tick, strictly larger than all previously issued ticks
  // and than the epoch of every entry currently in the tree.
  std::uint64_t NewTick() EXCLUDES(probe_region_) {
    AssertNoConcurrentProbes();
    return ++tick_counter_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint32_t dims() const { return dims_; }

  RTreeStats& stats() const { return stats_; }

  // Validates structural invariants (entry counts, MBR containment, uniform
  // leaf depth, epoch consistency, size bookkeeping). Test-only; O(n).
  bool CheckInvariants() const;

  // Appends every indexed point to *out (arbitrary order). Test-only; O(n).
  void CollectAll(std::vector<Point>* out) const;

 private:
  struct Node;
  struct Entry;

  // Debug check that no ConcurrentProbeScope is alive: mutators and
  // epoch-marking searches must never overlap a tick-free probe region.
  void AssertNoConcurrentProbes() const {
    assert(probe_scopes_.load(std::memory_order_relaxed) == 0 &&
           "RTree mutated inside a concurrent probe region");
  }

  // Orders [lo, hi) of `points` into Sort-Tile-Recursive layout.
  void StrOrder(std::vector<Point>* points, std::size_t lo, std::size_t hi,
                std::uint32_t dim);
  // Returns a new sibling if `node` was split, nullptr otherwise.
  Node* InsertRecurse(Node* node, const Point& p);
  Node* SplitNode(Node* node);
  Node* SplitNodeQuadratic(Node* node);
  Node* SplitNodeRStar(Node* node);
  void GrowRoot(Node* sibling);

  bool DeleteRecurse(Node* node, const Point& p, std::vector<Point>* orphans);

  void RangeRecurse(const Node* node, const Point& center, double eps2,
                    const Visitor& visit, RTreeStats* stats) const;
  void EpochRecurse(Node* node, const Point& center, double eps2,
                    std::uint64_t tick, const MarkingVisitor& visit);

  void FreeSubtree(Node* node);
  bool CheckRecurse(const Node* node, int depth, int leaf_depth,
                    std::size_t* count) const;
  void CollectRecurse(const Node* node, std::vector<Point>* out) const;

  std::uint32_t dims_;
  int max_entries_;
  int min_entries_;
  SplitPolicy split_policy_;
  Node* root_;
  std::size_t size_ = 0;
  std::uint64_t tick_counter_ = 0;
  mutable RTreeStats stats_;
  // Live ConcurrentProbeScope count; see AssertNoConcurrentProbes. The
  // runtime (assert-based) twin of the probe_region_ capability below.
  mutable std::atomic<int> probe_scopes_{0};
  // Zero-size capability tag for -Wthread-safety: ConcurrentProbeScope
  // acquires it shared, mutators exclude it. Carries no state — the
  // runtime check lives in probe_scopes_.
  struct CAPABILITY("probe region") ProbeRegionTag {};
  ProbeRegionTag probe_region_;
};

}  // namespace disc

#endif  // DISC_INDEX_RTREE_H_
