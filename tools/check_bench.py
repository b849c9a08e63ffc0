#!/usr/bin/env python3
"""Perf-regression gate: compare benchmark JSON against committed
baselines (bench/baselines/) and fail CI on drift beyond a tolerance.

    check_bench.py --baseline-dir bench/baselines [--tolerance 0.20] \
        BENCH_micro.json BENCH_serve.json

Each FILE is compared against <baseline-dir>/<basename(FILE)>.

Shared CI runners are far too noisy for absolute wall-clock
thresholds, so the gate is built from machine-independent signals:

  * Deterministic leaves (hit/miss/eviction counts, aggregate miss
    cost, ...) are pure functions of the seeded workload; any drift
    beyond the tolerance is a genuine behavioral regression and an
    ::error.

  * Throughput leaves (nsPerAccess, accessesPerSec, hitsPerSec) are
    normalized to the first entry of the same metric within the file
    before comparing -- machine speed cancels out, the *relative*
    cost of one policy against another remains.  A policy whose
    normalized throughput drifts past the tolerance is an ::error;
    absolute drift is reported as a ::warning only.

  * Wall-clock-only leaves (wallSec, qps, iterations, latency
    percentiles, the whole "timing" block) are skipped.

  * Non-numeric leaves are ignored: strings, booleans, and the nulls
    a bench writes for a value it never measured.

Structural drift -- a leaf present on one side only -- is an error:
it means the bench output changed shape and the baselines need
regenerating (see bench/baselines/README.md).

Exit status: 0 clean, 1 violations, 2 usage/missing files.
"""

import argparse
import json
import math
import os
import sys

# Leaves that are pure wall-clock noise on a shared runner.  The
# net-mode counters are deterministic for a fixed client stream
# (per-verb counts, bytes), except backpressure stalls, which depend
# on scheduling.  The robustness counters (sheds, breaker trips,
# deadline evictions, chaos injections, drain accounting) are zero on
# a healthy bench run and only move under fault injection or load
# races -- never a perf signal, so they are skipped rather than
# compared.
SKIP_KEYS = {
    "wallSec", "qps", "iterations", "p50", "p90", "p99",
    "taskSecTotal", "jobs", "workers",
    "net.backpressure_stalls",
    "shedOps", "breakerOpens", "breakerFastFails", "staleServes",
    "net.sheds", "net.idle_closed", "net.deadline_closed",
    "net.capacity_rejections",
}
# Path components whose whole subtree is wall-clock (or, for the
# drain/chaos trees, fault-injection bookkeeping).
SKIP_SUBTREES = {"timing", "net.wire_latency_ns", "net.drain",
                 "net.chaos"}
# Machine-dependent throughput: compared after within-file
# normalization, warned about in absolute terms.
THROUGHPUT_KEYS = {"nsPerAccess", "accessesPerSec", "hitsPerSec"}


def flatten(node, path=()):
    """Yield (path_tuple, value) for every numeric leaf; string,
    boolean and null leaves yield nothing."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from flatten(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from flatten(child, path + (label_of(node, index),))
    elif isinstance(node, bool):
        return
    elif isinstance(node, (int, float)):
        yield path, float(node)


def label_of(array, index):
    """A stable label for an array element: its name/policy field when
    present (so reordering does not cascade), else the index."""
    element = array[index]
    if isinstance(element, dict):
        for key in ("name", "policy", "benchmark"):
            if key in element and isinstance(element[key], str):
                return "%s=%s" % (key, element[key])
    return "[%d]" % index


def classify(path):
    # Subtree entries match both a literal path component and, because
    # exported metric names are flat dotted keys ("net.drain.duration"),
    # a dotted-prefix of one.
    if any(part == tree or part.startswith(tree + ".")
           for part in path for tree in SKIP_SUBTREES):
        return "skip"
    leaf = path[-1]
    if leaf in SKIP_KEYS:
        return "skip"
    if leaf in THROUGHPUT_KEYS:
        return "throughput"
    return "deterministic"


def rel_delta(baseline, current):
    if baseline == current:
        return 0.0
    denominator = max(abs(baseline), abs(current))
    if denominator == 0.0 or not math.isfinite(denominator):
        return math.inf
    return abs(current - baseline) / denominator


def normalize(values):
    """Divide every (path, value) of one metric by the first value, in
    flatten order -- the shared reference row cancels machine speed."""
    if not values:
        return {}
    reference = values[0][1]
    if reference == 0.0:
        return {}
    return {path: value / reference for path, value in values}


def annotate(level, message):
    # GitHub Actions annotation; degrades to a plain line elsewhere.
    print("::%s::%s" % (level, message))


def compare_file(current_path, baseline_path, tolerance):
    errors = 0
    try:
        with open(baseline_path) as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        annotate("error",
                 "%s: no committed baseline at %s (regenerate: see "
                 "bench/baselines/README.md)"
                 % (current_path, baseline_path))
        return 1
    with open(current_path) as handle:
        current = json.load(handle)

    baseline_leaves = dict(flatten(baseline))
    current_leaves = dict(flatten(current))
    name = os.path.basename(current_path)

    for path in sorted(set(baseline_leaves) ^ set(current_leaves),
                       key=str):
        if classify(path) == "skip":
            continue
        side = "baseline" if path in baseline_leaves else "current"
        annotate("error",
                 "%s: %s exists only in %s output -- bench shape "
                 "changed, regenerate bench/baselines/"
                 % (name, ".".join(path), side))
        errors += 1

    shared = set(baseline_leaves) & set(current_leaves)
    deterministic = [p for p in sorted(shared, key=str)
                     if classify(p) == "deterministic"]
    throughput = [p for p in sorted(shared, key=str)
                  if classify(p) == "throughput"]

    for path in deterministic:
        delta = rel_delta(baseline_leaves[path], current_leaves[path])
        if delta > tolerance:
            annotate("error",
                     "%s: %s drifted %.1f%% (baseline %g, current %g, "
                     "tolerance %.0f%%)"
                     % (name, ".".join(path), 100 * delta,
                        baseline_leaves[path], current_leaves[path],
                        100 * tolerance))
            errors += 1

    # Group throughput leaves by metric name, normalize each side by
    # its own first entry, then compare the normalized ratios.
    by_metric = {}
    for path in throughput:
        by_metric.setdefault(path[-1], []).append(path)
    for metric, paths in by_metric.items():
        norm_base = normalize([(p, baseline_leaves[p]) for p in paths])
        norm_cur = normalize([(p, current_leaves[p]) for p in paths])
        for path in paths:
            if path not in norm_base or path not in norm_cur:
                continue
            delta = rel_delta(norm_base[path], norm_cur[path])
            if delta > tolerance:
                annotate("error",
                         "%s: %s relative %s drifted %.1f%% vs the "
                         "file's reference entry (tolerance %.0f%%)"
                         % (name, ".".join(path), metric, 100 * delta,
                            100 * tolerance))
                errors += 1
            absolute = rel_delta(baseline_leaves[path],
                                 current_leaves[path])
            if absolute > tolerance:
                annotate("warning",
                         "%s: %s absolute %s differs %.1f%% from the "
                         "baseline machine (informational)"
                         % (name, ".".join(path), metric,
                            100 * absolute))

    checked = len(deterministic) + len(throughput)
    print("%s: %d leaves checked against %s, %d violation(s)"
          % (name, checked, baseline_path, errors))
    return errors


def main():
    parser = argparse.ArgumentParser(
        description="Gate benchmark JSON against committed baselines.")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="relative drift allowed (default 0.20)")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()
    if not os.path.isdir(args.baseline_dir):
        print("check_bench.py: baseline dir %r not found"
              % args.baseline_dir, file=sys.stderr)
        return 2

    errors = 0
    for current in args.files:
        if not os.path.exists(current):
            annotate("error", "%s: bench output missing" % current)
            errors += 1
            continue
        baseline = os.path.join(args.baseline_dir,
                                os.path.basename(current))
        errors += compare_file(current, baseline, args.tolerance)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
