#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against a checked-in baseline.

Usage:
    scripts/bench_diff.py BASELINE.json FRESH.json \
        [--threshold 0.25] [--filter REGEX]

Benchmarks are matched by name (optionally restricted to names matching
--filter); for each pair the relative change in real_time is reported. Exits non-zero if any benchmark regressed by
more than the threshold (default 25% slower). A run recorded with
--benchmark_repetitions is represented by its median aggregate row.
Benchmarks present in only one file are reported but never fail the
run — baselines are regenerated wholesale when the suite changes.

Both plain google-benchmark output and the repo's wrapped baselines
(top-level "note"/"command"/"context" plus "benchmarks") are accepted.

Runs whose `context.library_build_type` differ are refused outright:
debug-library timings are not comparable to release-library timings,
so a mismatch means the baseline must be re-recorded, not diffed
against. (The field reports how the google-benchmark *library* was
compiled — Debian's libbenchmark ships without NDEBUG and always says
"debug" regardless of how this repo is built.)
"""

import argparse
import json
import re
import sys


def load_benchmarks(path):
    with open(path) as f:
        doc = json.load(f)
    out, medians = {}, {}
    for b in doc.get("benchmarks", []):
        # With repetitions, the median row stands for the benchmark; the
        # other aggregates (mean/stddev/cv) are skipped.
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[b["run_name"]] = float(b["real_time"])
            continue
        out[b["name"]] = float(b["real_time"])
    out.update(medians)
    build_type = doc.get("context", {}).get("library_build_type")
    return out, build_type


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max tolerated slowdown as a fraction (0.25 = 25%%)")
    parser.add_argument("--filter", default=None, metavar="REGEX",
                        help="only compare benchmarks whose name matches")
    args = parser.parse_args()

    base, base_build = load_benchmarks(args.baseline)
    fresh, fresh_build = load_benchmarks(args.fresh)
    if args.filter:
        pattern = re.compile(args.filter)
        base = {n: v for n, v in base.items() if pattern.search(n)}
        fresh = {n: v for n, v in fresh.items() if pattern.search(n)}

    if base_build != fresh_build:
        print("bench_diff: refusing to compare across library_build_type: "
              f"baseline={base_build!r} fresh={fresh_build!r} — "
              "re-record the baseline instead", file=sys.stderr)
        return 2

    regressions = []
    common = sorted(set(base) & set(fresh))
    if not common:
        print("bench_diff: no common benchmarks between "
              f"{args.baseline} and {args.fresh}", file=sys.stderr)
        return 2

    width = max(len(n) for n in common)
    for name in common:
        old, new = base[name], fresh[name]
        change = (new - old) / old if old > 0 else 0.0
        marker = ""
        if change > args.threshold:
            marker = "  <-- REGRESSION"
            regressions.append((name, change))
        elif change < -args.threshold:
            marker = "  (faster)"
        print(f"{name:<{width}}  {old:>12.0f}ns -> {new:>12.0f}ns  "
              f"{change:+7.1%}{marker}")

    for name in sorted(set(base) - set(fresh)):
        print(f"{name:<{width}}  only in baseline")
    for name in sorted(set(fresh) - set(base)):
        print(f"{name:<{width}}  only in fresh run")

    if regressions:
        print(f"\nbench_diff: {len(regressions)} benchmark(s) regressed by "
              f"more than {args.threshold:.0%}:", file=sys.stderr)
        for name, change in regressions:
            print(f"  {name}: {change:+.1%}", file=sys.stderr)
        return 1
    print(f"\nbench_diff: OK ({len(common)} benchmarks within "
          f"{args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
