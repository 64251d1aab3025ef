#include "core/disc.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <thread>

#include "common/timer.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace disc {

namespace {

std::uint32_t ResolveThreads(std::uint32_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Runs before any member that consumes config values (the R-tree asserts on
// its fanout), so an invalid config surfaces as one descriptive exception
// instead of an assert deep in the index.
const DiscConfig& ValidateOrThrow(const DiscConfig& config) {
  if (Status valid = config.Validate(); !valid.ok()) {
    throw std::invalid_argument(valid.message());
  }
  return config;
}

}  // namespace

Disc::Disc(std::uint32_t dims, const DiscConfig& config)
    : config_(ValidateOrThrow(config)),
      tree_(dims, config.rtree_max_entries, config.rtree_split_policy) {
  config_.num_threads = ResolveThreads(config_.num_threads);
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads - 1);
  }
}

Disc::Record& Disc::GetRecord(PointId id) {
  auto it = records_.find(id);
  assert(it != records_.end());
  return it->second;
}

void Disc::SearchMarking(const Point& center, std::uint64_t tick,
                         const RTree::MarkingVisitor& visit) {
  if (config_.use_epoch_probing) {
    tree_.EpochRangeSearch(center, config_.eps, tick, visit);
  } else {
    tree_.RangeSearch(center, config_.eps,
                      [&](PointId id, const Point& p) { visit(id, p); });
  }
}

void Disc::AddRecheck(PointId id, Record* rec) {
  if (rec->recheck_serial == update_serial_) return;
  rec->recheck_serial = update_serial_;
  recheck_.push_back(id);
}

void Disc::SetLabel(PointId id, Record* rec, Category category,
                    ClusterId cid) {
  if (rec->category == category && rec->cid == cid) return;
  rec->category = category;
  rec->cid = cid;
  if (rec->delta_serial != update_serial_) {
    rec->delta_serial = update_serial_;
    delta_.relabeled.push_back(id);
  }
}

// ---------------------------------------------------------------------------
// COLLECT (Algorithm 1)
// ---------------------------------------------------------------------------

void Disc::FanOutProbes(const std::vector<const Point*>& centers,
                        std::vector<std::vector<PointId>>* hits) {
  hits->assign(centers.size(), {});
  std::vector<RTreeStats> lane_stats(pool_ ? pool_->lanes() : 1);
  Timer timer;
  {
    RTree::ConcurrentProbeScope probe_scope(tree_);
    ParallelFor(pool_.get(), centers.size(),
                [&](std::size_t lane, std::size_t i) {
                  if (centers[i] == nullptr) return;
                  std::vector<PointId>& out = (*hits)[i];
                  tree_.RangeSearch(
                      *centers[i], config_.eps,
                      [&out](PointId qid, const Point&) { out.push_back(qid); },
                      &lane_stats[lane]);
                });
  }
  metrics_.collect_parallel_ms += timer.ElapsedMillis();
  for (const RTreeStats& s : lane_stats) tree_.stats().MergeFrom(s);
}

void Disc::Collect(const std::vector<Point>& incoming,
                   const std::vector<Point>& outgoing,
                   std::vector<PointId>* ex_cores,
                   std::vector<PointId>* neo_cores, std::vector<Point>* c_out) {
  // touched_ records every point whose n_eps changed this update, deduplicated
  // by marking records under a dedicated traversal serial.
  const std::uint64_t touch_serial = ++search_serial_;
  auto touch = [&](PointId id, Record* rec) {
    if (rec->visit_serial == touch_serial) return;
    rec->visit_serial = touch_serial;
    touched_.push_back(id);
  };

  // --- Points exiting the window (Alg. 1, lines 2-7). ---
  //
  // Tombstone every exit and prune the index first, so the per-exit probes
  // all run against one fixed tree and can fan out across lanes. Exits are
  // invisible to each other's probes either way (the sequential algorithm
  // only zeroed their densities), so the merged outcome is unchanged.
  std::vector<Record*> out_recs(outgoing.size(), nullptr);
  for (std::size_t i = 0; i < outgoing.size(); ++i) {
    const Point& p = outgoing[i];
    auto it = records_.find(p.id);
    if (it == records_.end()) {
      // Caller misuse (an id that never entered the window), not an
      // internal invariant: reject with a rate-limited warning in every
      // build so the Debug sanitizer legs exercise the same tolerant path
      // production runs.
      DISC_LOG(kWarn, "disc.unknown_outgoing_ignored").Num("id", p.id);
      continue;
    }
    Record& rec = it->second;
    if (rec.core_prev) {
      // Ex-cores in Delta_out stay in the R-tree until CLUSTER finishes.
      c_out->push_back(rec.pt);
    } else {
      tree_.Delete(rec.pt);
    }
    rec.deleted = true;
    out_recs[i] = &rec;
  }

  std::vector<const Point*> centers(outgoing.size(), nullptr);
  for (std::size_t i = 0; i < outgoing.size(); ++i) {
    if (out_recs[i] != nullptr) centers[i] = &out_recs[i]->pt;
  }
  std::vector<std::vector<PointId>> hits;
  FanOutProbes(centers, &hits);

  // Merge in batch order: decrement each surviving neighbor once per exit.
  for (std::size_t i = 0; i < outgoing.size(); ++i) {
    Record* rec = out_recs[i];
    if (rec == nullptr) continue;
    const PointId pid = outgoing[i].id;
    for (PointId qid : hits[i]) {
      if (qid == pid) continue;
      auto qit = records_.find(qid);
      if (qit == records_.end()) continue;
      Record& q = qit->second;
      if (q.deleted) continue;
      assert(q.n_eps > 0);
      --q.n_eps;
      touch(qid, &q);
    }
    rec->n_eps = 0;
    touch(pid, rec);
    delta_.exited.push_back(pid);
  }

  // --- Points entering the window (Alg. 1, lines 8-12). ---
  //
  // Same staging: materialize every record and index entry sequentially,
  // probe the now-stable tree in parallel, then merge in batch order. Each
  // probe's candidate list covers the FULL incoming batch, so the merge
  // counts an incoming pair once by keeping only the earlier-ranked side —
  // reproducing exactly the increments the sequential interleaving applied.
  std::vector<Record*> in_recs(incoming.size(), nullptr);
  for (std::size_t j = 0; j < incoming.size(); ++j) {
    const Point& p = incoming[j];
    if (!IsValidPoint(p) || p.dims != tree_.dims()) {
      // Reject non-finite or mis-dimensioned points — caller misuse, so
      // warn-and-drop in every build rather than asserting.
      DISC_LOG(kWarn, "disc.invalid_incoming_rejected")
          .Num("id", p.id)
          .Num("dims", p.dims);
      continue;
    }
    auto [it, inserted] = records_.emplace(p.id, Record{});
    if (!inserted) {
      DISC_LOG(kWarn, "disc.duplicate_incoming_ignored").Num("id", p.id);
      continue;  // Duplicate id: ignore.
    }
    Record& rec = it->second;
    rec.pt = p;
    rec.n_eps = 1;  // The neighborhood includes the point itself.
    rec.delta_serial = update_serial_;  // Listed in `entered`, not `relabeled`.
    rec.enter_rank = static_cast<std::uint32_t>(j);
    delta_.entered.push_back(p.id);
    tree_.Insert(p);
    in_recs[j] = &rec;
  }

  centers.assign(incoming.size(), nullptr);
  for (std::size_t j = 0; j < incoming.size(); ++j) {
    if (in_recs[j] != nullptr) centers[j] = &in_recs[j]->pt;
  }
  FanOutProbes(centers, &hits);

  for (std::size_t j = 0; j < incoming.size(); ++j) {
    Record* recp = in_recs[j];
    if (recp == nullptr) continue;
    Record& rec = *recp;
    const PointId pid = incoming[j].id;
    for (PointId qid : hits[j]) {
      if (qid == pid) continue;
      auto qit = records_.find(qid);
      if (qit == records_.end()) continue;
      Record& q = qit->second;
      if (q.deleted) continue;
      // A later-ranked entrant: the pair is counted when its own candidate
      // list, which contains this point, is merged.
      if (q.delta_serial == update_serial_ && q.enter_rank > j) continue;
      ++q.n_eps;
      ++rec.n_eps;
      touch(qid, &q);
      if (q.n_eps >= config_.tau) {
        // q is a core from here on (n_eps only grows for the rest of this
        // update), so it can serve as rec's border witness.
        rec.witness = qid;
        rec.witness_serial = update_serial_;
      }
    }
    touch(pid, &rec);
    // The new point's category is settled by the recheck pass unless the
    // CLUSTER step labels it first.
    AddRecheck(pid, &rec);
  }

  // --- Ex-core / neo-core identification (Alg. 1, line 13). ---
  for (PointId id : touched_) {
    Record& rec = GetRecord(id);
    if (IsExCore(rec)) {
      ex_cores->push_back(id);
    } else if (IsNeoCore(rec)) {
      neo_cores->push_back(id);
    }
  }
}

// ---------------------------------------------------------------------------
// Update orchestration
// ---------------------------------------------------------------------------

const UpdateDelta& Disc::Update(const std::vector<Point>& incoming,
                                const std::vector<Point>& outgoing) {
  ++update_serial_;
  events_.clear();
  metrics_.Reset();
  metrics_.threads_used = pool_ ? pool_->lanes() : 1;
  recheck_.clear();
  touched_.clear();
  delta_.Clear();

  const RTreeStats stats_at_start = tree_.stats();

  obs::TraceSpan update_span("disc.update");
  update_span.AddArg("incoming", incoming.size());
  update_span.AddArg("outgoing", outgoing.size());

  std::vector<PointId> ex_cores;
  std::vector<PointId> neo_cores;
  std::vector<Point> c_out;
  Timer phase_timer;
  {
    obs::TraceSpan span("disc.collect");
    Collect(incoming, outgoing, &ex_cores, &neo_cores, &c_out);
    metrics_.collect_ms = phase_timer.ElapsedMillis();
    span.AddArg("ex_cores", ex_cores.size());
    span.AddArg("neo_cores", neo_cores.size());
  }

  metrics_.num_ex_cores = ex_cores.size();
  metrics_.num_neo_cores = neo_cores.size();
  metrics_.collect_searches =
      tree_.stats().range_searches - stats_at_start.range_searches;

  // CLUSTER (Algorithm 2): splits first, then remove C_out, then mergers.
  phase_timer.Reset();
  {
    obs::TraceSpan span("disc.ex_phase");
    ProcessExCores(ex_cores);
    for (const Point& p : c_out) tree_.Delete(p);
    metrics_.ex_phase_ms = phase_timer.ElapsedMillis();
    span.AddArg("ex_groups", metrics_.num_ex_groups);
  }
  phase_timer.Reset();
  {
    obs::TraceSpan span("disc.neo_phase");
    ProcessNeoCores(neo_cores);
    metrics_.neo_phase_ms = phase_timer.ElapsedMillis();
    span.AddArg("neo_groups", metrics_.num_neo_groups);
  }
  phase_timer.Reset();
  {
    obs::TraceSpan span("disc.recheck");
    RecheckNonCores();
    metrics_.recheck_ms = phase_timer.ElapsedMillis();
    span.AddArg("rechecked", recheck_.size());
  }

  // Finalize: refresh core_prev for every point whose density changed and
  // drop the tombstones of exited points.
  for (PointId id : touched_) {
    auto it = records_.find(id);
    if (it == records_.end()) continue;
    Record& rec = it->second;
    if (rec.deleted) {
      records_.erase(it);
      continue;
    }
    rec.core_prev = rec.n_eps >= config_.tau;
  }
  RefreshLabelColumn();

  const RTreeStats& ts = tree_.stats();
  metrics_.range_searches = ts.range_searches - stats_at_start.range_searches;
  metrics_.cluster_searches =
      metrics_.range_searches - metrics_.collect_searches;
  metrics_.nodes_visited = ts.nodes_visited - stats_at_start.nodes_visited;
  metrics_.entries_checked =
      ts.entries_checked - stats_at_start.entries_checked;
  metrics_.leaf_entries_tested =
      ts.leaf_entries_tested - stats_at_start.leaf_entries_tested;
  metrics_.epoch_pruned = ts.epoch_pruned - stats_at_start.epoch_pruned;
  update_span.AddArg("range_searches", metrics_.range_searches);
  update_span.AddArg("relabeled", delta_.relabeled.size());
  return delta_;
}

ProbeCounters Disc::LastProbeCounters() const {
  ProbeCounters c;
  c.range_searches = metrics_.range_searches;
  c.nodes_visited = metrics_.nodes_visited;
  c.entries_checked = metrics_.entries_checked;
  c.leaf_entries_tested = metrics_.leaf_entries_tested;
  c.epoch_pruned = metrics_.epoch_pruned;
  return c;
}

PhaseTimings Disc::LastPhaseTimings() const {
  PhaseTimings t;
  t.collect_ms = metrics_.collect_ms;
  t.ex_phase_ms = metrics_.ex_phase_ms;
  t.neo_phase_ms = metrics_.neo_phase_ms;
  t.recheck_ms = metrics_.recheck_ms;
  t.collect_parallel_ms = metrics_.collect_parallel_ms;
  t.threads_used = metrics_.threads_used;
  return t;
}

std::vector<Point> Disc::WindowContents(std::size_t limit) const {
  const std::size_t n = std::min(limit, col_ids_.size());
  std::vector<Point> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(records_.at(col_ids_[i]).pt);
  }
  return out;
}

void Disc::RefreshLabelColumn() {
  // Exits: one stable compaction pass.
  if (!delta_.exited.empty()) {
    std::vector<PointId> gone(delta_.exited);
    std::sort(gone.begin(), gone.end());
    std::size_t w = 0;
    auto g = gone.begin();
    for (std::size_t r = 0; r < col_ids_.size(); ++r) {
      while (g != gone.end() && *g < col_ids_[r]) ++g;
      if (g != gone.end() && *g == col_ids_[r]) continue;
      col_ids_[w] = col_ids_[r];
      col_categories_[w] = col_categories_[r];
      col_cids_[w] = col_cids_[r];
      ++w;
    }
    col_ids_.resize(w);
    col_categories_.resize(w);
    col_cids_.resize(w);
  }

  // Entries: merged in from the back, so ids arriving in ascending order
  // (the stream sources' contract) only append.
  std::vector<PointId> fresh(delta_.entered);
  std::sort(fresh.begin(), fresh.end());
  std::size_t r = col_ids_.size();
  std::size_t w = r + fresh.size();
  col_ids_.resize(w);
  col_categories_.resize(w);
  col_cids_.resize(w);
  for (std::size_t f = fresh.size(); f > 0;) {
    --w;
    if (r > 0 && col_ids_[r - 1] > fresh[f - 1]) {
      --r;
      col_ids_[w] = col_ids_[r];
      col_categories_[w] = col_categories_[r];
      col_cids_[w] = col_cids_[r];
    } else {
      --f;
      const Record& rec = GetRecord(fresh[f]);
      col_ids_[w] = fresh[f];
      col_categories_[w] = rec.category;
      col_cids_[w] = rec.cid;
    }
  }

  // Relabels: patched in place.
  for (PointId id : delta_.relabeled) {
    const auto it = std::lower_bound(col_ids_.begin(), col_ids_.end(), id);
    assert(it != col_ids_.end() && *it == id);  // Relabels only survivors.
    const std::size_t i = static_cast<std::size_t>(it - col_ids_.begin());
    const Record& rec = GetRecord(id);
    col_categories_[i] = rec.category;
    col_cids_[i] = rec.cid;
  }
}

ClusteringSnapshot Disc::Snapshot() const {
  const auto& registry = static_cast<const ClusterRegistry&>(registry_);
  ClusteringSnapshot snap;
  snap.ids = col_ids_;
  snap.categories = col_categories_;
  snap.cids.resize(col_cids_.size());
  for (std::size_t i = 0; i < col_cids_.size(); ++i) {
    snap.cids[i] = col_categories_[i] == Category::kNoise
                       ? kNoiseCluster
                       : registry.Find(col_cids_[i]);
  }
  return snap;
}

}  // namespace disc
