#!/usr/bin/env python3
"""Self time per span and per layer from a bench_e2e Chrome trace.

    python3 bench/e2e/self_time.py .bench_build/e2e/results/<run>/trace.json

A span's self time is its duration minus the durations of the spans nested
directly inside it on the same trace thread. A layer is the span name up
to its first dot: bench (the benchmark's own calls, whose self time is the
wire and client side on loopback workloads), engine, pipeline, disc,
rtree, pool. Pool worker lanes are trace threads of their own, so their
work shows under pool.drain, not inside the caller's spans.
"""

import json
import sys


def self_times(events):
    """{span name: [count, total_us, self_us]} over every matched B/E pair."""
    spans = {}
    stacks = {}
    for event in events:
        phase = event.get("ph")
        if phase not in ("B", "E"):
            continue
        stack = stacks.setdefault(event["tid"], [])
        if phase == "B":
            stack.append([event["name"], event["ts"], 0])
            continue
        if not stack:
            continue
        name, start, children = stack.pop()
        duration = event["ts"] - start
        row = spans.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - children
        if stack:
            stack[-1][2] += duration
    return spans


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        events = json.load(f)["traceEvents"]
    spans = self_times(events)
    layers = {}
    for name, (count, total, own) in spans.items():
        row = layers.setdefault(name.split(".")[0], [0, 0, 0])
        row[0] += count
        row[1] += total
        row[2] += own
    all_self = sum(row[2] for row in layers.values()) or 1
    for title, rows in (("layer", layers), ("span", spans)):
        print("%-22s %9s %12s %12s %7s" %
              (title, "count", "total_ms", "self_ms", "self%"))
        for name, (count, total, own) in sorted(rows.items(),
                                                key=lambda kv: -kv[1][2]):
            print("%-22s %9d %12.3f %12.3f %6.1f%%" %
                  (name, count, total / 1e3, own / 1e3, 100.0 * own / all_self))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
