#!/usr/bin/env python3
"""Compares two result directories of bench/e2e/run_all.sh: A (parent) and B.

    python3 bench/e2e/compare.py RESULTS_A RESULTS_B

For each workload and end-to-end metric it prints the two medians, B's
change, and a verdict against the bound in BENCHMARK.json:

  ok          B's median is no worse than A's by more than the bound;
  REGRESSED   it is worse by more than the bound;
  unresolved  the run-to-run spread (quartile distance / median) of A or B
              exceeds the bound, so neither verdict is safe — unless every
              run of B reads better than every run of A ("improved").

Deterministic counters (the counting-phase core/index counters of the
--trace 1 runs, and the frame size) must be identical for every seed.

Both directories must hold end-to-end and traced results for the same
seeds of every workload in BENCHMARK.json, each with every metric, and no
result may report correct=false or failed > 0. Exit code 0 when that holds,
nothing regressed and every counter matches; 1 otherwise.
"""

import glob
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "..", "..", "BENCHMARK.json")

# Per-layer metrics that depend only on workload and seed.
DETERMINISTIC = [
    "net.frame_bytes_per_point",
    "engine.pending_max",
    "core.range_searches",
    "core.collect_searches",
    "core.cluster_searches",
    "core.ex_cores",
    "core.neo_cores",
    "core.msbfs_expansions",
    "core.msbfs_rounds",
    "core.relabeled",
    "index.nodes_visited_per_search",
    "index.leaf_tests_per_search",
    "index.epoch_pruned_per_slide",
]


def load(directory, kind, names, problems):
    """{workload: {seed: metrics}} from <workload>-seed<N>.<kind>.json.

    A result that failed, or lacks one of `names`, goes to `problems`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory,
                                              "*-seed*.%s.json" % kind))):
        stem = os.path.basename(path)[:-len(".%s.json" % kind)]
        workload, seed = stem.rsplit("-seed", 1)
        with open(path) as f:
            lines = f.read().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            problems.append("%s: no result line" % path)
            continue
        if result["correct"] is not True or result["failed"] != 0:
            problems.append("%s: correct=%s failed=%s" %
                            (path, result["correct"], result["failed"]))
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        missing = [name for name in names if name not in metrics]
        if missing:
            problems.append("%s: no %s" % (path, ", ".join(missing)))
        runs.setdefault(workload, {})[int(seed)] = metrics
    return runs


def check_seeds(kind, workloads, runs_a, runs_b, problems):
    """Both sides must hold the same non-empty seed set for every workload."""
    for workload in workloads:
        seeds_a = sorted(runs_a.get(workload, {}))
        seeds_b = sorted(runs_b.get(workload, {}))
        if not seeds_a or seeds_a != seeds_b:
            problems.append("%s results of %s: A has seeds %s, B has %s" %
                            (kind, workload, seeds_a, seeds_b))


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else 0.0


def verdict(metric, a, b):
    """Returns (change of B's median vs A's, in the worse direction, verdict)."""
    sign = -1.0 if metric["better"] == "higher" else 1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    bound = metric["bound"]
    if max(spread(a), spread(b)) > bound:
        best_a = max(a) if sign < 0 else min(a)
        worst_b = min(b) if sign < 0 else max(b)
        better = worst_b > best_a if sign < 0 else worst_b < best_a
        return worse, "improved" if better else "unresolved"
    return worse, "REGRESSED" if worse > bound else "ok"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(BENCHMARK) as f:
        bench = json.load(f)
    dir_a, dir_b = sys.argv[1], sys.argv[2]
    workloads = [w["name"] for w in bench["workloads"]]
    e2e_names = [m["name"] for m in bench["end_to_end"]]
    layer_names = [m["name"] for m in bench["per_layer"]]
    problems = []
    e2e_a = load(dir_a, "e2e", e2e_names, problems)
    e2e_b = load(dir_b, "e2e", e2e_names, problems)
    layers_a = load(dir_a, "layers", layer_names, problems)
    layers_b = load(dir_b, "layers", layer_names, problems)
    check_seeds("e2e", workloads, e2e_a, e2e_b, problems)
    check_seeds("layers", workloads, layers_a, layers_b, problems)

    regressed = False
    for metric in bench["end_to_end"]:
        name = metric["name"]
        print("%s (%s, %s is better, bound %g)" %
              (name, metric["unit"], metric["better"], metric["bound"]))
        for workload in workloads:
            a = [m[name] for m in e2e_a.get(workload, {}).values() if name in m]
            b = [m[name] for m in e2e_b.get(workload, {}).values() if name in m]
            if not a or not b:
                print("  %-16s missing" % workload)
                continue
            worse, status = verdict(metric, a, b)
            regressed |= status == "REGRESSED"
            print("  %-16s A %-12.6g B %-12.6g worse by %+7.2f%%  "
                  "spread A %5.1f%% B %5.1f%%  n=%d/%d  %s" %
                  (workload, statistics.median(a), statistics.median(b),
                   100 * worse, 100 * spread(a), 100 * spread(b), len(a),
                   len(b), status))

    mismatches = 0
    for workload in workloads:
        runs_a = layers_a.get(workload, {})
        runs_b = layers_b.get(workload, {})
        for seed in sorted(set(runs_a) & set(runs_b)):
            a, b = runs_a[seed], runs_b[seed]
            for name in DETERMINISTIC:
                if a.get(name) != b.get(name):
                    mismatches += 1
                    print("counter %s differs on %s seed %d: %s vs %s" %
                          (name, workload, seed, a.get(name), b.get(name)))
    print("deterministic counters: %s" %
          ("identical" if mismatches == 0 else "%d differ" % mismatches))

    for problem in problems:
        print("incomplete: %s" % problem)
    return 1 if regressed or mismatches or problems else 0


if __name__ == "__main__":
    sys.exit(main())
