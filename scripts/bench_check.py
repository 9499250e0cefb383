#!/usr/bin/env python3
"""Gate benchmark smoke rows against the committed trajectory.

Compares freshly produced ``BENCH_*.json`` row files (bench_util.h's
``--json=`` output, schema v2) against the baselines committed under
``bench/baselines/``, applying per-metric tolerance bands from
``bench/baselines/tolerances.json``. Exits nonzero when a gated metric
regresses beyond its band, when a baselined metric disappears, or when
a required bench produced no rows at all — so CI notices a broken or
silently-skipped bench, not just a slow one. A tolerance rule that
matches no baselined metric also fails the check: it is a gate that
no longer guards anything (e.g. left behind when its metric was
retired).

Policy (see DESIGN.md "Load generation & benchmark trajectory"):
deterministic metrics (completed op counts, error counts) gate
tightly; throughput/latency metrics gate with wide bands plus an
absolute floor, because smoke runs on shared CI runners measure
liveness and order-of-magnitude, not microseconds. Everything else is
tracked as informational trajectory data.

Usage:
  bench_check.py --fresh DIR [--baselines DIR] [--tolerances FILE]
  bench_check.py --fresh DIR --update   # refresh the committed baselines
"""

import argparse
import glob
import json
import os
import re
import shutil
import sys

SCHEMA_VERSION = 2


def load_rows(directory, errors):
    """Maps (bench, workload, metric) -> row dict for every BENCH_*.json.

    File-level problems (unparseable JSON, stale schema_version) are
    appended to ``errors`` instead of aborting, so one truncated row
    file cannot hide every other regression in the run: the full diff
    is reported before the nonzero exit.
    """
    rows = {}
    files = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    for path in files:
        with open(path) as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as e:
                errors.append(f"{path}: not valid JSON: {e}")
                continue
        for row in data:
            version = row.get("schema_version")
            if version != SCHEMA_VERSION:
                errors.append(
                    f"{path}: row schema_version {version!r} != "
                    f"{SCHEMA_VERSION}; regenerate with current bench_util.h"
                )
                break  # every row in a file shares one schema version
            key = (row["bench"], row.get("workload", ""), row["metric"])
            rows[key] = row
    return rows, files


def load_tolerances(path):
    with open(path) as f:
        config = json.load(f)
    rules = []
    for rule in config.get("rules", []):
        rules.append((re.compile(rule["pattern"]), rule))
    return rules


def unused_rules(rules, rows):
    """Patterns of rules that match no 'bench.metric' among ``rows``."""
    names = [f"{bench}.{metric}" for (bench, _, metric) in rows]
    return [rule["pattern"] for pattern, rule in rules
            if not any(pattern.search(name) for name in names)]


def rule_for(rules, bench, metric):
    """First matching rule wins; None means informational."""
    name = f"{bench}.{metric}"
    for pattern, rule in rules:
        if pattern.search(name):
            return rule
    return None


def check_row(rule, baseline, fresh):
    """Returns an error string, or None if the fresh value is in band."""
    base, new = baseline["value"], fresh["value"]
    direction = rule["direction"]
    rel_tol = rule.get("rel_tol", 0.0)
    abs_floor = rule.get("abs_floor", 0.0)
    if direction == "exact":
        if new != base:
            return f"expected exactly {base:g}, got {new:g}"
    elif direction == "higher_better":
        bound = base * (1.0 - rel_tol)
        if new < bound and (abs_floor == 0.0 or new < abs_floor):
            return f"{new:g} below band [{bound:g}, inf) (baseline {base:g})"
    elif direction == "lower_better":
        # The effective ceiling is whichever is larger: the relative
        # band or the absolute floor (which shields tiny baselines).
        bound = max(base * (1.0 + rel_tol), abs_floor)
        if new > bound:
            return f"{new:g} above band (-inf, {bound:g}] (baseline {base:g})"
    else:
        return f"unknown direction {direction!r} in tolerances"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", required=True,
                        help="directory with freshly produced BENCH_*.json")
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory with committed baseline BENCH_*.json")
    parser.add_argument("--tolerances", default=None,
                        help="tolerance rules (default: "
                             "<baselines>/tolerances.json)")
    parser.add_argument("--update", action="store_true",
                        help="copy fresh rows over the committed baselines "
                             "instead of checking")
    args = parser.parse_args()

    if args.update:
        fresh_files = sorted(glob.glob(os.path.join(args.fresh,
                                                    "BENCH_*.json")))
        if not fresh_files:
            sys.exit(f"bench_check: no BENCH_*.json under {args.fresh}")
        os.makedirs(args.baselines, exist_ok=True)
        for path in fresh_files:
            dest = os.path.join(args.baselines, os.path.basename(path))
            shutil.copyfile(path, dest)
            print(f"updated {dest}")
        return

    tolerances = args.tolerances or os.path.join(args.baselines,
                                                 "tolerances.json")
    rules = load_tolerances(tolerances)
    failures = []
    baseline_rows, baseline_files = load_rows(args.baselines, failures)
    fresh_rows, fresh_files = load_rows(args.fresh, failures)
    if not fresh_rows and not failures:
        sys.exit(f"bench_check: no fresh rows under {args.fresh}")
    if not baseline_rows and not failures:
        # A brand-new trajectory (first bench ever, or a fresh checkout
        # without baselines) is not a regression — there is nothing to
        # regress against. Warn and point at the adoption path.
        print(f"bench_check: WARNING: no baseline rows under "
              f"{args.baselines}; nothing gated. Adopt the fresh rows "
              f"with: bench_check.py --fresh {args.fresh} --update")
        return

    for pattern in unused_rules(rules, baseline_rows):
        failures.append(f"tolerance rule {pattern!r} matches no baselined "
                        f"metric; drop it with the metric it gated")

    # Every baselined bench must have produced at least one fresh row;
    # a bench that stopped emitting is a broken trajectory, not a pass.
    baseline_benches = {b for (b, _, _) in baseline_rows}
    fresh_benches = {b for (b, _, _) in fresh_rows}
    for bench in sorted(baseline_benches - fresh_benches):
        failures.append(f"{bench}: no fresh rows (bench did not run?)")

    gated = informational = 0
    for key in sorted(baseline_rows):
        bench, workload, metric = key
        baseline = baseline_rows[key]
        rule = rule_for(rules, bench, metric)
        label = f"{bench}[{workload}].{metric}" if workload else \
            f"{bench}.{metric}"
        fresh = fresh_rows.get(key)
        if fresh is None:
            if bench in fresh_benches:
                failures.append(f"{label}: metric vanished from fresh rows")
            continue
        if bool(fresh.get("smoke")) != bool(baseline.get("smoke")):
            failures.append(
                f"{label}: smoke flag mismatch (baseline "
                f"{baseline.get('smoke')}, fresh {fresh.get('smoke')}) — "
                f"comparing smoke rows against full-run rows is meaningless")
            continue
        if rule is None:
            informational += 1
            continue
        gated += 1
        error = check_row(rule, baseline, fresh)
        if error:
            failures.append(f"{label}: {error}")

    # A bench that has fresh rows but no committed baseline at all is a
    # newly added experiment, not a regression: warn once per bench with
    # the adoption hint instead of failing (or spamming per-metric
    # notes) — the gate only tightens once its rows are committed.
    unbaselined = sorted(fresh_benches - baseline_benches)
    for bench in unbaselined:
        print(f"warning: bench {bench} has no committed baseline; "
              f"run bench_check.py --fresh {args.fresh} --update to adopt")

    new_keys = sorted(key for key in set(fresh_rows) - set(baseline_rows)
                      if key[0] not in unbaselined)
    for bench, workload, metric in new_keys:
        label = f"{bench}[{workload}].{metric}" if workload else \
            f"{bench}.{metric}"
        print(f"note: new metric not in baseline: {label} "
              f"(run --update to adopt)")

    print(f"bench_check: {gated} gated, {informational} informational, "
          f"{len(new_keys)} new, {len(baseline_files)} baseline / "
          f"{len(fresh_files)} fresh files")
    if failures:
        print(f"\n{len(failures)} problem(s):", file=sys.stderr)
        for failure in failures:
            print(f"  FAIL {failure}", file=sys.stderr)
        sys.exit(1)
    print("bench_check: OK")


if __name__ == "__main__":
    main()
