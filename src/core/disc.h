#ifndef DISC_CORE_DISC_H_
#define DISC_CORE_DISC_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cluster_registry.h"
#include "core/config.h"
#include "core/events.h"
#include "core/metrics.h"
#include "index/rtree.h"
#include "stream/stream_clusterer.h"

namespace disc {

// DISC: Density-based Incremental Striding Cluster (Kim et al., ICDE 2021).
//
// An exact incremental DBSCAN for the sliding-window model. Each Update call
// executes the paper's two steps:
//
//  * COLLECT (Alg. 1)  — maintains n_eps for every window point as the batch
//    of points enters/exits, and identifies the *ex-cores* (cores of the
//    previous window that lost core status or left) and *neo-cores* (cores of
//    the current window that gained the status or just arrived).
//  * CLUSTER (Alg. 2)  — groups ex-cores by retro-reachability and neo-cores
//    by nascent-reachability, computes each group's *minimal bonding cores*
//    (M- / M+), and decides cluster evolution: a split check per ex-core
//    group via Multi-Starter BFS (Alg. 3) over the current core graph, and a
//    label inspection per neo-core group. Labels of affected borders are
//    then refreshed (Sec. V).
//
// The two Section-IV optimizations — MS-BFS and epoch-based probing of the
// R-tree (Alg. 4) — can be toggled independently through DiscConfig; the
// produced clustering is identical either way.
//
// Only COLLECT fans its probes out, across the pool the Disc owns when
// config.num_threads > 1; CLUSTER runs sequentially on the calling thread,
// epoch-probed (docs/ALGORITHM.md §4.6). Snapshots, checkpoints, deltas, and
// events are bit-identical for every num_threads value, which is why a
// DiscEngine session can run single-lane and still match a standalone run.
//
// The resulting labeling equals what DBSCAN computes from scratch on the
// window contents (up to cluster-id renaming and the usual DBSCAN tie on
// borders adjacent to several clusters).
class Disc : public StreamClusterer {
 public:
  // Throws std::invalid_argument when config.Validate() fails; validate
  // up front (e.g. DiscEngine session admission) to reject bad configs
  // without the exception.
  Disc(std::uint32_t dims, const DiscConfig& config);

  // StreamClusterer. The returned delta is precise: `relabeled` lists
  // exactly the surviving points whose stored category or cluster handle
  // changed. Cluster-id renaming that happens purely through merges (the
  // union-find representative of an untouched point's handle changing) is
  // deliberately not listed — the kMerge event carries that information.
  const UpdateDelta& Update(const std::vector<Point>& incoming,
                            const std::vector<Point>& outgoing) override;
  ClusteringSnapshot Snapshot() const override;
  std::string name() const override { return "DISC"; }
  PhaseTimings LastPhaseTimings() const override;
  ProbeCounters LastProbeCounters() const override;

  // Convenience single-point operations (Update with singleton batches).
  void Insert(const Point& p) { Update({p}, {}); }
  void Remove(const Point& p) { Update({}, {p}); }

  // Checkpointing: serializes the full clusterer state (window points,
  // densities, labels, cluster registry) so a stream processor can restart
  // without replaying the window. Restore into a Disc constructed with the
  // same dims; eps/tau are verified against the checkpoint. The R-tree is
  // rebuilt by bulk load. Same-machine byte order is assumed. Both return a
  // Status naming the first I/O or validation failure (the target is
  // unusable after a failed Load).
  Status SaveCheckpoint(std::ostream& out) const;
  Status LoadCheckpoint(std::istream& in);

  // Cluster-evolution events observed during the most recent Update.
  const std::vector<ClusterEvent>& last_events() const { return events_; }

  // Counters for the most recent Update (range searches etc.).
  const DiscMetrics& last_metrics() const { return metrics_; }

  const DiscConfig& config() const { return config_; }
  std::size_t window_size() const { return records_.size(); }

  // The window's points sorted by id. Stream sources assign ids in arrival
  // order, so this doubles as the arrival-ordered contents — what a
  // CountBasedWindow needs to resume after LoadCheckpoint (see the seeded
  // window constructor).
  std::vector<Point> WindowContents() const;

  // Cumulative R-tree probe statistics.
  const RTreeStats& tree_stats() const { return tree_.stats(); }

 private:
  // Per-point state. `cid` is a ClusterRegistry handle; the canonical cluster
  // is registry_.Find(cid). The *_serial fields are scratch marks keyed to
  // either the per-Update serial or a per-traversal serial, so no per-slide
  // clearing pass is ever needed.
  struct Record {
    Point pt;
    std::uint32_t n_eps = 0;
    bool core_prev = false;  // Core at the end of the previous Update.
    bool deleted = false;    // Exited in the current Update (tombstone).
    Category category = Category::kNoise;
    ClusterId cid = kNoiseCluster;

    std::uint64_t visit_serial = 0;    // Visited marker of BFS traversals.
    std::uint32_t owner = 0;           // MS-BFS starter that claimed the point.
    std::uint64_t witness_serial = 0;  // Validity marker of `witness`.
    PointId witness = 0;               // A current-core eps-neighbor.
    std::uint64_t group_serial = 0;    // Already consumed by an ex/neo group.
    std::uint64_t recheck_serial = 0;  // Queued for the border recheck pass.
    std::uint64_t delta_serial = 0;    // Already listed in delta_.relabeled.
    std::uint32_t enter_rank = 0;      // Position in this update's incoming
                                       // batch (valid while delta_serial ==
                                       // update_serial_ during COLLECT).
  };

  // Assigns a label and records the point in delta_.relabeled when the label
  // actually changed. All CLUSTER-step label writes go through here.
  void SetLabel(PointId id, Record* rec, Category category, ClusterId cid);

  bool IsCoreNow(const Record& r) const {
    return !r.deleted && r.n_eps >= config_.tau;
  }
  bool IsExCore(const Record& r) const {
    return r.core_prev && (r.deleted || r.n_eps < config_.tau);
  }
  bool IsNeoCore(const Record& r) const {
    return !r.core_prev && IsCoreNow(r);
  }

  // COLLECT step. Fills the ex-core/neo-core id lists and the list of
  // ex-cores that exited the window (C_out, still present in the R-tree).
  //
  // Staged for parallelism: index mutations and record bookkeeping run
  // sequentially in batch order, while the per-point eps-range probes — the
  // step's dominant cost — fan out across the thread pool as read-only
  // searches whose candidate lists are then merged sequentially in batch
  // order. The merge applies exactly the per-point effects the sequential
  // algorithm would, so the result is independent of the lane count.
  void Collect(const std::vector<Point>& incoming,
               const std::vector<Point>& outgoing,
               std::vector<PointId>* ex_cores, std::vector<PointId>* neo_cores,
               std::vector<Point>* c_out);

  // Fans one read-only, tick-free eps-range probe per non-null center out
  // across the pool (inline when the pool is absent or the batch holds
  // fewer than two centers). (*hits)[i] receives the ids within eps of
  // *centers[i] in index-traversal order — deterministic because the tree
  // is not mutated while the probes run. Probe counters accumulate per lane
  // and are merged into the tree's statistics; the fan-out's wall time is
  // added to metrics_.collect_parallel_ms.
  void FanOutProbes(const std::vector<const Point*>& centers,
                    std::vector<std::vector<PointId>>* hits);

  // Ex-core phase of CLUSTER: one retro-reachability closure + split check
  // per unprocessed ex-core group, exactly as Algorithm 2 reads — plus a
  // survivor-reconciliation step the paper's phrasing leaves open.
  //
  // MS-BFS's early exit leaves the last remaining component with its old
  // labels, which is sound at most once per previous cluster per update: if
  // two ex-core groups of the same cluster each report a split and each
  // leaves an unexplored "survivor", two *disconnected* components could
  // silently share the old cluster id (observed on 4-D streams where the
  // cut between two surviving parts is witnessed only transitively, across
  // groups). Every such hazard involves split-reporting groups only, so
  // CheckConnectivity records each split group's surviving component
  // (keyed by the canonical cids its bonding cores carried) and, on a
  // collision, runs a two-starter MS-BFS between the two survivors: if they
  // are one component nothing changes; otherwise the drained one is
  // relabeled fresh. The no-split fast path pays nothing.
  // See docs/ALGORITHM.md §4.2.
  void ProcessExCores(const std::vector<PointId>& ex_cores);
  void ProcessExGroup(PointId seed);

  // Runs the split check over the minimal bonding cores m_minus of an
  // ex-core group whose previous cluster is old_cid; relabels the cores and
  // borders of every component that detaches. Returns the component count.
  int CheckConnectivity(const std::vector<PointId>& m_minus, ClusterId old_cid);

  // Records a kSplit event from old_cid to every cluster handle created
  // since handles_before; returns false (recording nothing) when none was.
  bool PushSplitEvent(ClusterId old_cid, std::size_t handles_before);

  // Connectivity checks, both epoch-probed. *survivor_rep receives a core
  // id inside the component that kept its labels (the early-exit survivor).
  // MsBfs is Algorithm 3: interleaved searches with min-starter merges;
  // SequentialBfs is the repeated single-source BFS that use_msbfs = false
  // selects.
  int MsBfs(const std::vector<PointId>& m_minus, PointId* survivor_rep);
  int SequentialBfs(const std::vector<PointId>& m_minus,
                    PointId* survivor_rep);

  // The two outcomes of a connectivity check for one explored component:
  // DetachComponent relabels its cores and borders under a fresh cluster id
  // (queueing the borders for recheck); RecheckSurvivorBorders queues the
  // borders of the component that keeps its labels.
  void DetachComponent(const std::vector<PointId>& cores,
                       const std::vector<PointId>& borders);
  void RecheckSurvivorBorders(const std::vector<PointId>& borders);

  // Neo-core phase of CLUSTER: one epoch-probed nascent-reachability
  // closure + label inspection (emerge, grow, or merge) per unprocessed
  // neo-core group, in neo_cores order.
  void ProcessNeoCores(const std::vector<PointId>& neo_cores);
  void ProcessNeoGroup(PointId seed);

  // Final pass of Sec. V: refreshes the category/cid of non-core points
  // whose adjacent core set may have changed.
  void RecheckNonCores();

  // Brings the label column up to date with delta_ at the end of Update:
  // drops `exited`, merges `entered` in, and patches `relabeled`.
  void RefreshLabelColumn();

  // Issues an eps-range search around `center`, honoring the epoch-probing
  // switch. The visitor returns true when the point needs no further visits
  // under this tick (only enforced when epoch probing is enabled, so
  // visitors must stay idempotent).
  void SearchMarking(const Point& center, std::uint64_t tick,
                     const RTree::MarkingVisitor& visit);

  void AddRecheck(PointId id, Record* rec);

  Record& GetRecord(PointId id);

  DiscConfig config_;
  RTree tree_;
  std::unordered_map<PointId, Record> records_;
  ClusterRegistry registry_;
  // The label column Snapshot() reads: every window point's id, category,
  // and raw registry handle, sorted by id. Mirrors records_ after every
  // Update and LoadCheckpoint.
  std::vector<PointId> col_ids_;
  std::vector<Category> col_categories_;
  std::vector<ClusterId> col_cids_;
  // The config-owned probe fan-out pool; null when config_.num_threads
  // resolves to 1 (the sequential path then runs without any
  // synchronization).
  std::unique_ptr<ThreadPool> pool_;

  std::vector<ClusterEvent> events_;
  DiscMetrics metrics_;

  std::uint64_t update_serial_ = 0;  // Increments once per Update.
  std::uint64_t search_serial_ = 0;  // Increments once per graph traversal.
  std::vector<PointId> recheck_;     // Non-cores to re-label at Update end.
  std::vector<PointId> touched_;     // Points whose n_eps changed.
  // Per-update: representative core of the surviving component of each
  // cluster that a split group touched (see ProcessExCores comment).
  std::unordered_map<ClusterId, PointId> split_survivors_;
};

}  // namespace disc

#endif  // DISC_CORE_DISC_H_
