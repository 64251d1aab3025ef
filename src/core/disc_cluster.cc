// CLUSTER step of DISC (Algorithm 2): ex-core groups and split checks via
// MS-BFS (Algorithm 3), neo-core groups and merge decisions, and the final
// label recheck pass of Section V.

#include <algorithm>
#include <utility>

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
  std::vector<PointId> queue{seed};
  std::vector<PointId> m_minus;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const PointId rid = queue[head];
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
// Multi-Starter BFS (Algorithm 3): interleaved, epoch-probed searches
// ---------------------------------------------------------------------------

namespace {

// Per-starter state of MS-BFS: the BFS queue (queue[head..] is still to be
// expanded), the claimed cores, and the adjacent non-cores. When two
// searches meet, the absorbing one takes the other's unexpanded tail, cores,
// and borders.
struct MsThread {
  std::vector<PointId> queue;
  std::size_t head = 0;
  std::vector<PointId> cores;
  std::vector<PointId> borders;
};

}  // namespace

// One search per bonding core, run simultaneously: union-find over
// starters, one expansion per live search per pass over the rotation, and a
// search whose queue drains has fully explored one detaching component.
// Every probe shares one epoch tick (Alg. 4), so each entry is delivered at
// most once after it is consumed:
//  * An expanded vertex marks its own entry, while a claimed core stays
//    visible until its own expansion. Every core-core edge is therefore seen
//    from its earlier-expanded endpoint, while the other endpoint is still
//    unmarked — exactly when two searches meet. The min-starter rule
//    (smaller starter index absorbs the larger) fixes which search survives
//    a meet.
//  * A non-core is marked on first sight: it only needs one witness and one
//    recheck.
int Disc::MsBfs(const std::vector<PointId>& m_minus, PointId* survivor_rep) {
  obs::TraceSpan span("disc.msbfs", obs::TraceLevel::kDetail);
  span.AddArg("starters", m_minus.size());
  const std::uint64_t expansions_before = metrics_.msbfs_expansions;
  const std::uint64_t serial = ++search_serial_;
  const std::uint64_t tick = tree_.NewTick();
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
    // Pre: a and b are distinct roots.
    if (b < a) std::swap(a, b);
    MsThread& ta = threads[a];
    MsThread& tb = threads[b];
    ta.queue.insert(ta.queue.end(),
                    tb.queue.begin() + static_cast<std::ptrdiff_t>(tb.head),
                    tb.queue.end());
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
  std::uint64_t rounds = 0;  // Passes over the rotation.
  // Run until a single search remains (Alg. 3, line 5).
  while (active_count > 1) {
    ++rounds;
    for (std::size_t idx = 0; idx < active.size() && active_count > 1;) {
      const std::uint32_t root = active[idx];
      if (find_root(root) != root) {
        // Merged into another search; drop from the rotation.
        active[idx] = active.back();
        active.pop_back();
        continue;
      }
      MsThread& th = threads[root];
      if (th.head == th.queue.size()) {
        // Component complete: detach it under a fresh cluster id.
        DetachComponent(th.cores, th.borders);
        th = MsThread{};  // Distinguishes drained roots from the survivor.
        ++drained;
        --active_count;
        active[idx] = active.back();
        active.pop_back();
        continue;
      }

      const PointId rid = th.queue[th.head++];
      ++metrics_.msbfs_expansions;
      const Point center = GetRecord(rid).pt;
      SearchMarking(center, tick, [&](PointId qid, const Point&) -> bool {
        if (qid == rid) return true;  // Own entry: expansion complete.
        auto qit = records_.find(qid);
        if (qit == records_.end()) return true;
        Record& q = qit->second;
        if (q.deleted) return true;
        const std::uint32_t mine = find_root(root);
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
          return false;  // Marked when it is expanded itself.
        }
        // Non-core in the current window: remember the adjacency for label
        // maintenance, then prune it from this MS-BFS instance.
        if (q.visit_serial != serial) {
          q.visit_serial = serial;
          q.witness = rid;
          q.witness_serial = update_serial_;
          threads[mine].borders.push_back(qid);
        }
        return true;
      });
      ++idx;
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
    std::vector<PointId> cores{start};  // BFS queue; cores[head..] unexpanded.
    std::vector<PointId> borders;
    start_rec.visit_serial = serial;
    --members_left;
    bool early_exit = false;
    for (std::size_t head = 0; head < cores.size(); ++head) {
      if (first && members_left == 0) {
        early_exit = true;  // All bonding cores connected: no split.
        break;
      }
      const PointId rid = cores[head];
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
// Neo-core phase: nascent-reachability closures and merge decisions
// ---------------------------------------------------------------------------

void Disc::ProcessNeoCores(const std::vector<PointId>& neo_cores) {
  for (PointId id : neo_cores) {
    Record& rec = GetRecord(id);
    if (rec.group_serial == update_serial_) continue;  // Alg. 2, line 13.
    ProcessNeoGroup(id);
    ++metrics_.num_neo_groups;
  }
}

void Disc::ProcessNeoGroup(PointId seed) {
  const std::uint64_t serial = ++search_serial_;
  const std::uint64_t tick = tree_.NewTick();

  GetRecord(seed).visit_serial = serial;
  std::vector<PointId> group{seed};  // BFS queue; group[head..] unexpanded.
  std::vector<PointId> borders;
  std::vector<ClusterId> cid_list;  // Distinct clusters M+ spreads over.
  for (std::size_t head = 0; head < group.size(); ++head) {
    const PointId rid = group[head];
    Record& r = GetRecord(rid);
    r.group_serial = update_serial_;
    const Point center = r.pt;
    SearchMarking(center, tick, [&](PointId qid, const Point&) -> bool {
      if (qid == rid) return true;
      auto qit = records_.find(qid);
      if (qit == records_.end()) return true;
      Record& q = qit->second;
      if (q.deleted) return true;
      const bool first_visit = q.visit_serial != serial;
      q.visit_serial = serial;
      if (IsNeoCore(q)) {
        if (first_visit) group.push_back(qid);
        return false;  // Marked when it is expanded itself.
      }
      if (!first_visit) return true;
      if (IsCoreNow(q)) {
        // Core in both windows: an M+ member. Only its label matters
        // (Alg. 2, line 11) — no connectivity check is needed.
        const ClusterId c = registry_.Find(q.cid);
        if (std::find(cid_list.begin(), cid_list.end(), c) == cid_list.end()) {
          cid_list.push_back(c);
        }
        return true;
      }
      // Non-core neighbor of a neo-core: becomes a border of this group's
      // cluster. The witness keeps any later recheck consistent with the
      // group's final label.
      q.witness = rid;
      q.witness_serial = update_serial_;
      borders.push_back(qid);
      return true;
    });
  }

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
  for (PointId mp : group) {
    Record& rm = GetRecord(mp);
    SetLabel(mp, &rm, Category::kCore, g);
  }
  for (PointId bp : borders) {
    Record& rb = GetRecord(bp);
    SetLabel(bp, &rb, Category::kBorder, g);
  }
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
