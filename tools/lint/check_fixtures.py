#!/usr/bin/env python3
"""Self-test for disc_lint: every golden violation fixture must be flagged
with its rule id, and every clean twin must pass.

Fixture naming: tools/lint/fixtures/**/<rule_with_underscores>_violation.cc
and ..._clean.cc. A rule may have several golden pairs, one per directory
(e.g. epoch-confinement has the COLLECT-stage pair at the fixtures root,
the CLUSTER pair under cluster/, and the engine-scheduler pair
under engine/; the v2 rules live under status/, lock/, and iter/). Run
with --rule <rule-id> to check every pair of one rule (how ctest registers
it), or with no arguments to check every fixture found.

Exit status: 0 all expectations met, 1 otherwise.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "disc_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")


def find_fixtures():
    # (rule, group) -> {"violation": path, "clean": path}, where group is
    # the pair's directory relative to fixtures/ so one rule can own
    # multiple golden pairs without the paths colliding.
    pairs = {}
    for root, _dirs, names in os.walk(FIXTURES):
        group = os.path.relpath(root, FIXTURES)
        for name in sorted(names):
            if not name.endswith(".cc"):
                continue
            stem, _ = os.path.splitext(name)
            for kind in ("violation", "clean"):
                suffix = "_" + kind
                if stem.endswith(suffix):
                    rule = stem[:-len(suffix)].replace("_", "-")
                    pairs.setdefault((rule, group), {})[kind] = os.path.join(
                        root, name)
    return pairs


def run_lint(path):
    proc = subprocess.run(
        [sys.executable, LINT, path],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


def check_rule(rule, group, pair):
    failures = []
    label = f"{rule} ({group})"
    violation = pair.get("violation")
    clean = pair.get("clean")
    if violation is None:
        failures.append(f"{label}: missing violation fixture")
    else:
        code, out = run_lint(violation)
        if code != 1:
            failures.append(
                f"{label}: expected exit 1 on {violation}, got {code}\n{out}")
        elif f"[{rule}]" not in out:
            failures.append(
                f"{label}: violation fixture not flagged with [{rule}]\n"
                f"{out}")
    if clean is None:
        failures.append(f"{label}: missing clean twin")
    else:
        code, out = run_lint(clean)
        if code != 0:
            failures.append(
                f"{label}: expected exit 0 on clean twin {clean}, got "
                f"{code}\n{out}")
    return failures


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rule", help="check only this rule's fixture pair")
    args = parser.parse_args(argv)

    pairs = find_fixtures()
    if args.rule:
        pairs = {k: v for k, v in pairs.items() if k[0] == args.rule}
        if not pairs:
            print(f"no fixtures found for rule {args.rule}", file=sys.stderr)
            return 1

    failures = []
    for (rule, group), pair in sorted(pairs.items()):
        failures.extend(check_rule(rule, group, pair))
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    if not failures:
        print(f"ok: {len(pairs)} rule fixture pair(s) behaved as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
