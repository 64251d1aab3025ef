// CLUSTER step of DISC (Algorithm 2): ex-core groups and split checks via
// MS-BFS (Algorithm 3), neo-core groups and merge decisions, and the final
// label recheck pass of Section V.

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>

#include "common/timer.h"
#include "core/disc.h"
#include "obs/trace.h"

namespace disc {

// ---------------------------------------------------------------------------
// Ex-core phase: retro-reachability closures and split checks
// ---------------------------------------------------------------------------

void Disc::ProcessExCores(const std::vector<PointId>& ex_cores) {
  split_survivors_.clear();
  for (PointId id : ex_cores) {
    Record& rec = GetRecord(id);
    if (rec.group_serial == update_serial_) continue;  // Alg. 2, line 7.
    ProcessExGroup(id);
    ++metrics_.num_ex_groups;
  }
}

void Disc::ProcessExGroup(PointId seed) {
  const std::uint64_t serial = ++search_serial_;
  const std::uint64_t tick = tree_.NewTick();

  Record& seed_rec = GetRecord(seed);
  const ClusterId old_cid = registry_.Find(seed_rec.cid);
  seed_rec.visit_serial = serial;

  // BFS over ex-cores computes R-(seed); the minimal bonding cores M-(seed)
  // (cores in both windows adjacent to some member of R-) fall out of the
  // same range searches at no extra cost.
  std::deque<PointId> queue;
  std::vector<PointId> m_minus;
  queue.push_back(seed);
  while (!queue.empty()) {
    const PointId rid = queue.front();
    queue.pop_front();
    Record& r = GetRecord(rid);
    r.group_serial = update_serial_;
    if (!r.deleted) {
      // An ex-core still in the window demotes to border or noise; the
      // recheck pass settles which.
      AddRecheck(rid, &r);
    }
    const Point center = r.pt;
    SearchMarking(center, tick, [&](PointId qid, const Point&) -> bool {
      if (qid == rid) return true;  // Own entry: expansion complete.
      auto qit = records_.find(qid);
      if (qit == records_.end()) return true;
      Record& q = qit->second;
      if (IsExCore(q)) {
        if (q.visit_serial != serial) {
          q.visit_serial = serial;
          queue.push_back(qid);
        }
        return false;  // Marked when it is expanded itself.
      }
      if (q.deleted) return true;
      if (IsCoreNow(q)) {
        if (q.core_prev && q.visit_serial != serial) {
          q.visit_serial = serial;
          m_minus.push_back(qid);  // Core in both windows: M- member.
        }
        return true;
      }
      // Non-core survivor near an ex-core: its border/noise status may have
      // changed.
      AddRecheck(qid, &q);
      return true;
    });
  }

  if (m_minus.empty()) {
    // Every core the group could bond to is gone: the cluster dissipates.
    if (old_cid != kNoiseCluster) {
      events_.push_back({ClusterEventType::kDissipate, {old_cid}});
    }
    return;
  }
  CheckConnectivity(m_minus, old_cid);
}

int Disc::CheckConnectivity(const std::vector<PointId>& m_minus,
                            ClusterId old_cid) {
  // Canonical cids the bonding cores carry right now (they key the
  // survivor-reconciliation claims; an earlier drain may already have given
  // some of them a fresh id).
  std::vector<ClusterId> m_cids;
  for (PointId m : m_minus) {
    const ClusterId c = registry_.Find(GetRecord(m).cid);
    if (std::find(m_cids.begin(), m_cids.end(), c) == m_cids.end()) {
      m_cids.push_back(c);
    }
  }

  std::size_t handles_before = registry_.num_handles();
  PointId survivor = m_minus[0];
  const int ncc = config_.use_msbfs ? MsBfs(m_minus, &survivor)
                                    : SequentialBfs(m_minus, &survivor);
  if (!PushSplitEvent(old_cid, handles_before)) {
    events_.push_back({ClusterEventType::kShrink, {old_cid}});
  }

  if (ncc > 1) {
    // Reconcile this split's surviving component with any survivor an
    // earlier split group recorded under one of the same cluster ids: when
    // the two are actually disconnected, one of them must stop carrying the
    // shared labels.
    for (ClusterId c : m_cids) {
      auto it = split_survivors_.find(c);
      if (it == split_survivors_.end() || it->second == survivor) continue;
      Record& other = GetRecord(it->second);
      if (other.deleted || !IsCoreNow(other)) continue;  // Stale rep.
      handles_before = registry_.num_handles();
      ++metrics_.survivor_reconciliations;
      PointId winner = survivor;
      MsBfs({it->second, survivor}, &winner);
      PushSplitEvent(old_cid, handles_before);
      survivor = winner;
    }
    for (ClusterId c : m_cids) split_survivors_[c] = survivor;
  }
  return ncc;
}

bool Disc::PushSplitEvent(ClusterId old_cid, std::size_t handles_before) {
  const std::size_t fresh = registry_.num_handles() - handles_before;
  if (fresh == 0) return false;
  ClusterEvent event{ClusterEventType::kSplit, {old_cid}};
  for (std::size_t i = 0; i < fresh; ++i) {
    event.cids.push_back(static_cast<ClusterId>(handles_before + i));
  }
  events_.push_back(std::move(event));
  return true;
}

// ---------------------------------------------------------------------------
// Connectivity checks: component relabeling shared by both traversals
// ---------------------------------------------------------------------------

void Disc::DetachComponent(const std::vector<PointId>& cores,
                           const std::vector<PointId>& borders) {
  const ClusterId fresh = registry_.NewCluster();
  for (PointId cp : cores) {
    Record& rc = GetRecord(cp);
    SetLabel(cp, &rc, Category::kCore, fresh);
  }
  for (PointId bp : borders) {
    Record& rb = GetRecord(bp);
    if (rb.deleted || IsCoreNow(rb)) continue;
    SetLabel(bp, &rb, Category::kBorder, fresh);
    // A later detach in this update may relabel this fragment's cores
    // again, so the border assignment is re-validated in the recheck pass.
    AddRecheck(bp, &rb);
  }
}

void Disc::RecheckSurvivorBorders(const std::vector<PointId>& borders) {
  // The surviving component keeps its labels, but its reported borders may
  // reference clusters whose cores another detach of this update relabels
  // (cheap: each carries a surviving-side witness).
  for (PointId bp : borders) {
    Record& rb = GetRecord(bp);
    if (!rb.deleted && !IsCoreNow(rb)) AddRecheck(bp, &rb);
  }
}

// ---------------------------------------------------------------------------
// Multi-Starter BFS (Algorithm 3): level-synchronous rounds of tick-free
// probes
// ---------------------------------------------------------------------------

namespace {

// Per-starter state of MS-BFS. Queues, claimed cores, and adjacent non-cores
// are concatenated whenever two searches meet.
struct MsThread {
  std::deque<PointId> queue;
  std::vector<PointId> cores;
  std::vector<PointId> borders;
};

}  // namespace

// One search per bonding core, run simultaneously: union-find over
// starters, one popped queue head per live search per round, and a search
// whose queue drains has fully explored one detaching component. Each
// round's probes all run first (tick-free, fanned out across lanes via
// FanOutProbes), and their hit lists are then applied to the live state
// sequentially in round order. Two consequences:
//  * Determinism by construction: every state mutation is a pure function
//    of the hit lists, which depend only on the frozen tree — not on lane
//    count or timing. A front meet is detected when an applied hit finds a
//    core already claimed by a different root, and the min-starter merge
//    rule (smaller starter index absorbs the larger) fixes the surviving
//    search independently of discovery order.
//  * Tick-free re-visits are no-ops: a probe may re-deliver an already
//    claimed core or recorded non-core that epoch marking would have
//    pruned, but the visit_serial guards make every such application a
//    no-op (the only live effect, the claimed-by-other merge check, fires
//    identically — both owners were already unified when the edge was first
//    seen from its earlier-expanded endpoint).
int Disc::MsBfs(const std::vector<PointId>& m_minus, PointId* survivor_rep) {
  obs::TraceSpan span("disc.msbfs", obs::TraceLevel::kDetail);
  span.AddArg("starters", m_minus.size());
  const std::uint64_t expansions_before = metrics_.msbfs_expansions;
  const std::uint64_t serial = ++search_serial_;
  const std::size_t k = m_minus.size();

  std::vector<std::uint32_t> parent(k);
  for (std::size_t i = 0; i < k; ++i) parent[i] = static_cast<std::uint32_t>(i);
  auto find_root = [&](std::uint32_t i) {
    std::uint32_t root = i;
    while (parent[root] != root) root = parent[root];
    while (parent[i] != root) {
      const std::uint32_t next = parent[i];
      parent[i] = root;
      i = next;
    }
    return root;
  };

  std::vector<MsThread> threads(k);
  for (std::size_t i = 0; i < k; ++i) {
    Record& rec = GetRecord(m_minus[i]);
    rec.visit_serial = serial;
    rec.owner = static_cast<std::uint32_t>(i);
    threads[i].queue.push_back(m_minus[i]);
    threads[i].cores.push_back(m_minus[i]);
  }

  std::size_t active_count = k;
  auto merge_threads = [&](std::uint32_t a, std::uint32_t b) {
    // Pre: a and b are distinct roots. Min-starter rule: the smaller starter
    // index absorbs the larger, so the merged search's identity never
    // depends on which round or probe discovered the meet.
    if (b < a) std::swap(a, b);
    MsThread& ta = threads[a];
    MsThread& tb = threads[b];
    ta.queue.insert(ta.queue.end(), tb.queue.begin(), tb.queue.end());
    ta.cores.insert(ta.cores.end(), tb.cores.begin(), tb.cores.end());
    ta.borders.insert(ta.borders.end(), tb.borders.begin(), tb.borders.end());
    tb = MsThread{};
    parent[b] = a;
    --active_count;
  };

  std::vector<std::uint32_t> active;
  active.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    active.push_back(static_cast<std::uint32_t>(i));
  }

  int drained = 0;
  std::uint64_t rounds = 0;
  // Round scratch, reused across iterations.
  std::vector<std::uint32_t> batch_roots;
  std::vector<PointId> batch_ids;
  std::vector<const Point*> batch_centers;
  std::vector<std::vector<PointId>> batch_hits;

  // Run until a single search remains (Alg. 3, line 5).
  while (active_count > 1) {
    obs::TraceSpan round_span("disc.msbfs.round", obs::TraceLevel::kDetail);
    ++rounds;
    // Build the round: pop one queue head per live search, in rotation
    // order, draining any search whose component is complete (merges cannot
    // happen here — they only fire while hits are applied).
    batch_roots.clear();
    batch_ids.clear();
    for (std::size_t idx = 0; idx < active.size() && active_count > 1;) {
      const std::uint32_t root = active[idx];
      if (find_root(root) != root) {
        // Merged into another search; drop from the rotation.
        active[idx] = active.back();
        active.pop_back();
        continue;
      }
      MsThread& th = threads[root];
      if (th.queue.empty()) {
        // Component complete: detach it under a fresh cluster id.
        DetachComponent(th.cores, th.borders);
        th = MsThread{};  // Distinguishes drained roots from the survivor.
        ++drained;
        --active_count;
        active[idx] = active.back();
        active.pop_back();
        continue;
      }
      batch_roots.push_back(root);
      batch_ids.push_back(th.queue.front());
      th.queue.pop_front();
      ++idx;
    }
    round_span.AddArg("batch", batch_ids.size());
    round_span.AddArg("live_searches", active_count);
    if (active_count <= 1) break;  // A popped-but-unapplied head only held
                                   // queue state; cores/borders were already
                                   // recorded when it was claimed.

    // Probe the frozen tree for every popped head at once.
    batch_centers.assign(batch_ids.size(), nullptr);
    for (std::size_t j = 0; j < batch_ids.size(); ++j) {
      batch_centers[j] = &GetRecord(batch_ids[j]).pt;
    }
    FanOutProbes(batch_centers, &batch_hits, &metrics_.cluster_parallel_ms);

    // Apply the hit lists to the live state, sequentially in round order.
    for (std::size_t j = 0;
         j < batch_ids.size() && active_count > 1; ++j) {
      const PointId rid = batch_ids[j];
      ++metrics_.msbfs_expansions;
      for (PointId qid : batch_hits[j]) {
        if (qid == rid) continue;
        auto qit = records_.find(qid);
        if (qit == records_.end()) continue;
        Record& q = qit->second;
        if (q.deleted) continue;
        const std::uint32_t mine = find_root(batch_roots[j]);
        if (IsCoreNow(q)) {
          if (q.visit_serial != serial) {
            q.visit_serial = serial;
            q.owner = mine;
            threads[mine].queue.push_back(qid);
            threads[mine].cores.push_back(qid);
          } else {
            const std::uint32_t other = find_root(q.owner);
            if (other != mine) merge_threads(mine, other);
          }
          continue;
        }
        // Non-core in the current window: remember the adjacency for label
        // maintenance, then prune it from this MS-BFS instance.
        if (q.visit_serial != serial) {
          q.visit_serial = serial;
          q.witness = rid;
          q.witness_serial = update_serial_;
          threads[mine].borders.push_back(qid);
        }
      }
    }
  }

  // The last remaining search keeps the previous cluster id for everything
  // it touched (and everything it never had to explore) — the early exit
  // that makes unsplit slides cheap.
  for (std::size_t i = 0; i < k; ++i) {
    if (find_root(static_cast<std::uint32_t>(i)) !=
            static_cast<std::uint32_t>(i) ||
        threads[i].cores.empty()) {
      continue;
    }
    *survivor_rep = m_minus[i];
    RecheckSurvivorBorders(threads[i].borders);
    break;
  }
  metrics_.msbfs_rounds += rounds;
  span.AddArg("expansions", metrics_.msbfs_expansions - expansions_before);
  span.AddArg("components", static_cast<std::uint64_t>(drained) + 1);
  span.AddArg("rounds", rounds);
  return drained + 1;
}

// ---------------------------------------------------------------------------
// Sequential connectivity check (DISC with MS-BFS disabled)
// ---------------------------------------------------------------------------

int Disc::SequentialBfs(const std::vector<PointId>& m_minus,
                        PointId* survivor_rep) {
  // Repeated single-source BFS: the first search may stop early once every
  // minimal bonding core has been reached (the no-split fast path), but any
  // further component must be explored exhaustively — the cost MS-BFS avoids.
  int ncc = 0;
  bool first = true;
  std::uint64_t member_serial = ++search_serial_;
  for (PointId m : m_minus) GetRecord(m).visit_serial = member_serial;
  std::size_t members_left = m_minus.size();

  for (PointId start : m_minus) {
    Record& start_rec = GetRecord(start);
    if (start_rec.visit_serial != member_serial) continue;  // Already reached.
    ++ncc;
    if (ncc == 1) *survivor_rep = start;  // First component keeps its labels.
    const std::uint64_t serial = ++search_serial_;
    const std::uint64_t tick = tree_.NewTick();
    std::deque<PointId> queue;
    std::vector<PointId> cores;
    std::vector<PointId> borders;
    start_rec.visit_serial = serial;
    --members_left;
    queue.push_back(start);
    cores.push_back(start);
    bool early_exit = false;
    while (!queue.empty()) {
      if (first && members_left == 0) {
        early_exit = true;  // All bonding cores connected: no split.
        break;
      }
      const PointId rid = queue.front();
      queue.pop_front();
      ++metrics_.msbfs_expansions;
      const Point center = GetRecord(rid).pt;
      SearchMarking(center, tick, [&](PointId qid, const Point&) -> bool {
        if (qid == rid) return true;
        auto qit = records_.find(qid);
        if (qit == records_.end()) return true;
        Record& q = qit->second;
        if (q.deleted) return true;
        if (IsCoreNow(q)) {
          if (q.visit_serial != serial) {
            if (q.visit_serial == member_serial) --members_left;
            q.visit_serial = serial;
            queue.push_back(qid);
            cores.push_back(qid);
          }
          return false;
        }
        if (q.visit_serial != serial) {
          q.visit_serial = serial;
          q.witness = rid;
          q.witness_serial = update_serial_;
          borders.push_back(qid);
        }
        return true;
      });
    }
    if (!first && !early_exit) {
      DetachComponent(cores, borders);
    } else {
      RecheckSurvivorBorders(borders);
    }
    first = false;
    if (members_left == 0 && early_exit) break;
  }
  return ncc;
}

// ---------------------------------------------------------------------------
// Neo-core phase: speculative discovery, sequential commit
// ---------------------------------------------------------------------------
//
// Every neo-core speculatively runs a *read-only* BFS of its
// nascent-reachable component on the pool (NeoDiscoveryWorker — no record,
// registry, or tree writes at all), then discoveries are committed on the
// calling thread in seed order. An atomic CAS-min claim table prunes the
// speculation: a worker that reaches a neo-core already claimed by a smaller
// seed aborts, because that seed is exploring the same component and —
// being smaller — can itself never lose a claim race within it, so it
// always completes. Claims are purely advisory (relaxed ordering suffices):
// whatever the timing, each component's minimum seed completes its
// discovery, commits first among the component's seeds, and stamps the
// members' group_serial so every duplicate is discarded — which is why the
// committed output is bit-identical for any lane count, including the
// inline zero-worker execution.
//
// Probe accounting follows determinism: only committed discoveries' counters
// merge into the tree's shared statistics (keeping range_searches et al.
// lane-count-deterministic); discarded work is tallied separately under the
// speculative_* metrics, which are timing-dependent by nature.

void Disc::ProcessNeoCores(const std::vector<PointId>& neo_cores) {
  if (neo_cores.empty()) return;
  const std::size_t n = neo_cores.size();

  // Claim-table index of each neo-core: its position in the neo_cores list.
  std::unordered_map<PointId, std::uint32_t> seed_index;
  seed_index.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    seed_index.emplace(neo_cores[i], static_cast<std::uint32_t>(i));
  }
  std::vector<std::atomic<std::uint32_t>> claims(n);
  for (auto& c : claims) {
    c.store(std::numeric_limits<std::uint32_t>::max(),
            std::memory_order_relaxed);
  }
  std::vector<NeoDiscovery> discoveries(n);

  Timer timer;
  {
    RTree::ConcurrentProbeScope probe_scope(tree_);
    // chunk = 1: one discovery explores a whole component while its
    // neighbors abort after a single claim check — the worst per-index skew
    // in the codebase.
    ParallelFor(
        execution_pool(), n,
        [&](std::size_t, std::size_t i) {
          NeoDiscoveryWorker(static_cast<std::uint32_t>(i), neo_cores,
                             seed_index, &claims, &discoveries[i]);
        },
        /*chunk=*/1);
  }
  metrics_.cluster_parallel_ms += timer.ElapsedMillis();
  metrics_.neo_discoveries += n;

  for (std::size_t i = 0; i < n; ++i) {
    const NeoDiscovery& d = discoveries[i];
    if (d.aborted || GetRecord(neo_cores[i]).group_serial == update_serial_) {
      ++metrics_.neo_discoveries_discarded;
      metrics_.speculative_searches += d.stats.range_searches;
      continue;
    }
    CommitNeoGroup(d);
    ++metrics_.num_neo_groups;
  }
}

void Disc::NeoDiscoveryWorker(
    std::uint32_t seed_idx, const std::vector<PointId>& neo_cores,
    const std::unordered_map<PointId, std::uint32_t>& seed_index,
    std::vector<std::atomic<std::uint32_t>>* claims, NeoDiscovery* out) {
  obs::TraceSpan span("disc.neo_discovery", obs::TraceLevel::kDetail);
  span.AddArg("seed", neo_cores[seed_idx]);

  // CAS-min on the claim slot. Returns false when a smaller seed holds it:
  // that seed is exploring this component and will complete it.
  auto try_claim = [&](std::uint32_t j) {
    std::uint32_t cur = (*claims)[j].load(std::memory_order_relaxed);
    while (seed_idx < cur) {
      if ((*claims)[j].compare_exchange_weak(cur, seed_idx,
                                             std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  };

  if (!try_claim(seed_idx)) {
    out->aborted = true;
    span.AddArg("aborted", 1);
    return;
  }

  // One first-visit filter per point (each hit is a neo-core, an M+ member,
  // or a border, never two of these), kept in a local set so no record
  // field is written from a lane.
  std::unordered_set<PointId> seen;
  std::deque<PointId> queue;
  seen.insert(neo_cores[seed_idx]);
  queue.push_back(neo_cores[seed_idx]);
  out->group.push_back(neo_cores[seed_idx]);
  bool lost = false;
  while (!queue.empty() && !lost) {
    const PointId rid = queue.front();
    queue.pop_front();
    const Point center = GetRecord(rid).pt;
    tree_.RangeSearch(
        center, config_.eps,
        [&](PointId qid, const Point&) {
          if (lost || qid == rid) return;
          auto qit = records_.find(qid);
          if (qit == records_.end()) return;
          const Record& q = qit->second;
          if (q.deleted) return;
          if (!seen.insert(qid).second) return;  // Already first-visited.
          if (IsCoreNow(q)) {
            if (IsNeoCore(q)) {
              // Every neo-core appears in neo_cores (COLLECT touches any
              // point whose core status flips), so the lookup cannot miss.
              if (!try_claim(seed_index.find(qid)->second)) {
                lost = true;
                return;
              }
              queue.push_back(qid);
              out->group.push_back(qid);
              return;
            }
            out->raw_cids.push_back(q.cid);  // M+ member; canonicalized at
            return;                          // commit time.
          }
          out->borders.emplace_back(qid, rid);
        },
        &out->stats);
  }
  if (lost) {
    out->aborted = true;
    span.AddArg("aborted", 1);
    return;
  }
  span.AddArg("cores", out->group.size());
  span.AddArg("borders", out->borders.size());
}

void Disc::CommitNeoGroup(const NeoDiscovery& d) {
  // Canonicalize the recorded raw handles in encounter order. The registry
  // holds exactly the unions of all earlier commits, so the distinct
  // clusters M+ spreads over are resolved against the state this group's
  // turn in seed order sees.
  std::vector<ClusterId> cid_list;
  for (ClusterId raw : d.raw_cids) {
    const ClusterId c = registry_.Find(raw);
    if (std::find(cid_list.begin(), cid_list.end(), c) == cid_list.end()) {
      cid_list.push_back(c);
    }
  }

  // Only M+'s labels decide (Alg. 2, line 11) — no connectivity check is
  // needed.
  ClusterId g;
  if (cid_list.empty()) {
    g = registry_.NewCluster();  // Emergence.
    events_.push_back({ClusterEventType::kEmerge, {g}});
  } else if (cid_list.size() == 1) {
    g = cid_list[0];  // Expansion.
    events_.push_back({ClusterEventType::kGrow, {g}});
  } else {
    // M+ spreads over several clusters: merge them all (constant-time unions
    // in the registry — no relabeling pass).
    g = cid_list[0];
    for (std::size_t i = 1; i < cid_list.size(); ++i) {
      g = registry_.Union(g, cid_list[i]);
    }
    ClusterEvent event{ClusterEventType::kMerge, {g}};
    for (ClusterId c : cid_list) {
      if (c != g) event.cids.push_back(c);
    }
    events_.push_back(std::move(event));
  }
  for (PointId mp : d.group) {
    Record& rm = GetRecord(mp);
    rm.group_serial = update_serial_;
    SetLabel(mp, &rm, Category::kCore, g);
  }
  for (const auto& [bp, wit] : d.borders) {
    Record& rb = GetRecord(bp);
    // The witness keeps any later recheck of this border consistent with
    // the group's final label.
    rb.witness = wit;
    rb.witness_serial = update_serial_;
    if (rb.deleted || IsCoreNow(rb)) continue;
    SetLabel(bp, &rb, Category::kBorder, g);
  }
  // Only committed probe work reaches the shared (deterministic) counters.
  tree_.stats().MergeFrom(d.stats);
}

// ---------------------------------------------------------------------------
// Label recheck (Section V)
// ---------------------------------------------------------------------------

void Disc::RecheckNonCores() {
  for (PointId id : recheck_) {
    auto it = records_.find(id);
    if (it == records_.end()) continue;
    Record& rec = it->second;
    if (rec.deleted || IsCoreNow(rec)) continue;

    // Witness shortcut: a neighbor known to be a current core.
    if (config_.use_border_witness && rec.witness_serial == update_serial_) {
      auto wit = records_.find(rec.witness);
      if (wit != records_.end() && IsCoreNow(wit->second)) {
        SetLabel(id, &rec, Category::kBorder, wit->second.cid);
        continue;
      }
    }
    // Full neighborhood examination.
    bool found = false;
    ClusterId found_cid = kNoiseCluster;
    tree_.RangeSearch(rec.pt, config_.eps, [&](PointId qid, const Point&) {
      if (found || qid == id) return;
      auto qit = records_.find(qid);
      if (qit == records_.end()) return;
      const Record& q = qit->second;
      if (!q.deleted && IsCoreNow(q)) {
        found = true;
        found_cid = q.cid;
      }
    });
    if (found) {
      SetLabel(id, &rec, Category::kBorder, found_cid);
    } else {
      SetLabel(id, &rec, Category::kNoise, kNoiseCluster);
    }
  }
}

}  // namespace disc
