#ifndef DISC_CORE_METRICS_H_
#define DISC_CORE_METRICS_H_

#include <cstdint>

namespace disc {

// Per-Update counters. Range-search counts reproduce the paper's Fig. 7;
// the remaining counters support the drill-down analyses.
struct DiscMetrics {
  std::uint64_t range_searches = 0;   // All index probes this update.
  std::uint64_t collect_searches = 0; // Probes issued by COLLECT.
  std::uint64_t cluster_searches = 0; // Probes issued by CLUSTER.
  std::uint64_t num_ex_cores = 0;
  std::uint64_t num_neo_cores = 0;
  std::uint64_t num_ex_groups = 0;    // Retro-reachable equivalence classes.
  std::uint64_t num_neo_groups = 0;   // Nascent-reachable equivalence classes.
  std::uint64_t msbfs_expansions = 0; // Vertices expanded by reachability checks.
  // Survivor reconciliations between split groups of one cluster (see
  // Disc::ProcessExCores); nonzero only on slides where one cluster split
  // under more than one ex-core group.
  std::uint64_t survivor_reconciliations = 0;
  // Passes MS-BFS made over its rotation of live searches (each gives every
  // live search one expansion); with use_msbfs off only survivor
  // reconciliations run it.
  std::uint64_t msbfs_rounds = 0;

  // Index-probe drill-down, aggregated from RTreeStats over the update:
  // how much tree the probes actually walked, and how much Algorithm 4's
  // epoch check pruned away (the count-level view of the Fig. 8 ablation).
  std::uint64_t nodes_visited = 0;
  std::uint64_t entries_checked = 0;
  std::uint64_t leaf_entries_tested = 0;
  std::uint64_t epoch_pruned = 0;

  // Wall-clock breakdown of the update (milliseconds).
  double collect_ms = 0.0;   // COLLECT: density maintenance.
  double ex_phase_ms = 0.0;  // Ex-core closures + split checks.
  double neo_phase_ms = 0.0; // Neo-core closures + merge decisions.
  double recheck_ms = 0.0;   // Sec.-V border/noise relabeling.
  // Time inside COLLECT's parallel probe fan-out (contained in collect_ms).
  double collect_parallel_ms = 0.0;
  // Always 0: CLUSTER runs sequentially. Kept so readers of the per-layer
  // report keep a stable field.
  double cluster_parallel_ms = 0.0;
  // Lanes COLLECT's fan-outs ran on: those of the pool the Disc owns, or 1
  // without one.
  std::uint64_t threads_used = 1;

  void Reset() { *this = DiscMetrics{}; }
};

}  // namespace disc

#endif  // DISC_CORE_METRICS_H_
