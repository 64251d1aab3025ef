#ifndef DISC_CORE_CONFIG_H_
#define DISC_CORE_CONFIG_H_

#include <cstdint>

#include "common/status.h"
#include "index/rtree.h"

namespace disc {

// Parameters of the DISC clusterer. eps and tau are DBSCAN's distance and
// density thresholds (Table I); a point is a core iff its eps-neighborhood,
// including itself, holds at least tau points. The two booleans toggle the
// Section IV optimizations independently, matching the Fig. 8 ablation.
struct DiscConfig {
  double eps = 1.0;
  std::uint32_t tau = 5;

  // Multi-Starter BFS (Alg. 3). When false, density-connectedness of the
  // minimal bonding cores is checked with repeated single-source BFS.
  bool use_msbfs = true;

  // Epoch-based probing of the R-tree (Alg. 4) in every CLUSTER traversal:
  // the ex-core closures, MS-BFS or the single-source BFS, and the neo-core
  // closures. When false, range searches revisit already-explored index
  // regions and the traversal filters duplicates on the client side.
  bool use_epoch_probing = true;

  // Border-witness shortcut (this implementation's addition, not in the
  // paper): remember one adjacent current-core per touched non-core during
  // the CLUSTER traversals so the Sec.-V label recheck can usually skip its
  // range search. Off = every rechecked point pays a full search.
  bool use_border_witness = true;

  // Fanout and node-split heuristic of the R-tree index.
  int rtree_max_entries = 16;
  SplitPolicy rtree_split_policy = SplitPolicy::kQuadratic;

  // Lanes for COLLECT's probe fan-out (docs/ALGORITHM.md §3.1, §4.6);
  // CLUSTER always runs on the calling thread. 1 = fully sequential (no
  // pool is even created); 0 = one lane per hardware thread. The produced
  // clustering, deltas, and events are bit-identical for every value: the
  // parallel probes are read-only and tick-free, and their results are
  // merged on the calling thread in a thread-count-independent order.
  std::uint32_t num_threads = 1;

  // Checks every parameter and returns a descriptive error for the first
  // violation (eps must be a positive finite number, tau >= 1,
  // rtree_max_entries >= 4). Called by the Disc constructor — which throws
  // std::invalid_argument with the message on failure — and by
  // DiscEngine session admission, which surfaces the Status instead of
  // failing deep inside the index.
  Status Validate() const;
};

}  // namespace disc

#endif  // DISC_CORE_CONFIG_H_
