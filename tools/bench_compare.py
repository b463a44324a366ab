#!/usr/bin/env python3
"""Compare two Google-Benchmark JSON files and gate on geomean regression.

Usage:
  bench_compare.py BASELINE.json CURRENT.json [options]

The tool matches benchmark rows by full name (e.g.
"BM_FusedExpandL1/1048576"), computes the per-row time ratio
current / baseline, and fails (exit 1) when the geometric mean of the
ratios over all matched rows exceeds 1 + threshold (default 0.15, i.e. a
15% aggregate slowdown).

Cross-machine noise: a committed baseline was produced on some runner; the
CI runner may simply be a uniformly slower (or faster) machine. Pass
--normalize REGEX to name ruler rows: the rows matching REGEX, which must
be the same rows in both files. Every current time is divided by the
median of the rulers' current / baseline ratios before comparing. A
uniform machine-speed shift then cancels, while a relative regression (a
kernel got slower than the rulers) still trips the gate. With several
rulers, one ruler's own noise (a slow run of one row on a loaded host)
cannot move every ratio: the median passes it by, and each ruler's
normalized ratio stays in the geomean like any other row's. A lone ruler
is left out of the geomean, since its normalized ratio is 1 by
construction.

Rows present in only one file never fail the gate; they are listed in the
report (and in --json output) so renames are visible. Aggregate rows
(mean/median/stddev repetitions) are ignored.

Pass --trace-diff BASELINE_SUMMARY CURRENT_SUMMARY (two histest-trace
--json summaries of the same workload) to attribute a failing gate: when
the geomean trips, the tool prints the per-stage wall-clock attribution
and kernel-call tally deltas from tools/obs_diff.py, so the CI log says
*which pipeline stage* regressed, not just that something did.

Exit codes: 0 pass, 1 regression, 2 usage/input error.
"""

import argparse
import json
import math
import os
import re
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import obs_diff  # noqa: E402  (sibling module, needs the path tweak)


def die(msg):
    print(msg, file=sys.stderr)
    sys.exit(2)

_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_rows(path):
    """Returns {name: time_ns} for the per-iteration rows of a bench JSON."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        die(f"bench_compare: cannot read {path}: {e}")
    rows = {}
    for row in doc.get("benchmarks", []):
        if row.get("run_type", "iteration") != "iteration":
            continue  # mean/median/stddev aggregates of repetitions
        name = row.get("name")
        time = row.get("real_time")
        unit = row.get("time_unit", "ns")
        if name is None or time is None or unit not in _UNIT_TO_NS:
            continue
        if time <= 0:
            continue
        rows[name] = time * _UNIT_TO_NS[unit]
    if not rows:
        die(f"bench_compare: no benchmark rows in {path}")
    return rows


def pick_rulers(base, cur, pattern):
    """Resolves --normalize: the rows matching `pattern`, the same in both
    files."""
    base_rulers = sorted(n for n in base if re.search(pattern, n))
    cur_rulers = sorted(n for n in cur if re.search(pattern, n))
    if base_rulers != cur_rulers:
        die(f"bench_compare: --normalize {pattern!r} matches "
            f"{base_rulers} in the baseline but {cur_rulers} in the "
            f"current file")
    if not base_rulers:
        die(f"bench_compare: --normalize {pattern!r} matches no row")
    return base_rulers


def attribute_regression(base_summary, cur_summary):
    """Prints the stage attribution for a failed gate; returns the report
    dict (or None when the summaries cannot be compared)."""
    try:
        base = obs_diff.load_run(base_summary)
        cur = obs_diff.load_run(cur_summary)
    except obs_diff.DiffError as e:
        print(f"bench_compare: --trace-diff: {e}", file=sys.stderr)
        return None
    mismatches = obs_diff.manifest_mismatches(base, cur)
    # Informational only here: the bench gate already decided the verdict,
    # and a differing config is exactly what the attribution should expose.
    gate_lines, _ = obs_diff.render_gate(mismatches, force=True)
    for line in gate_lines:
        print(f"bench_compare: {line}", file=sys.stderr)
    report = obs_diff.diff_runs(base, cur)
    print("bench_compare: regression attribution (from traced runs):")
    print(obs_diff.render_report(report))
    return report


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="baseline bench JSON")
    parser.add_argument("current", help="current bench JSON")
    parser.add_argument(
        "--threshold", type=float, default=0.15,
        help="maximum allowed geomean slowdown (default 0.15 = 15%%)")
    parser.add_argument(
        "--filter", default=None, metavar="REGEX",
        help="only compare rows whose name matches this regex")
    parser.add_argument(
        "--normalize", default=None, metavar="REGEX",
        help="ruler rows: divide every current time by the median "
             "current/baseline ratio of the rows matching this regex, which "
             "must be the same rows in both files (cancels uniform "
             "machine-speed differences)")
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write a machine-readable report to PATH")
    parser.add_argument(
        "--trace-diff", nargs=2, default=None,
        metavar=("BASE_SUMMARY", "CUR_SUMMARY"),
        help="histest-trace --json summaries of the same workload; on a "
             "failing gate, print which pipeline stage the regression "
             "attributes to")
    args = parser.parse_args()
    if args.threshold <= 0:
        parser.error("--threshold must be positive")

    base = load_rows(args.baseline)
    cur = load_rows(args.current)

    normalized_by = None
    if args.normalize:
        rulers = pick_rulers(base, cur, args.normalize)
        scale = statistics.median(cur[r] / base[r] for r in rulers)
        normalized_by = {"rulers": rulers, "median_ratio": scale}
        left_out = set(rulers) if len(rulers) == 1 else set()
        base = {n: t for n, t in base.items() if n not in left_out}
        cur = {n: t / scale for n, t in cur.items() if n not in left_out}

    if args.filter:
        rx = re.compile(args.filter)
        base = {n: t for n, t in base.items() if rx.search(n)}
        cur = {n: t for n, t in cur.items() if rx.search(n)}

    matched = sorted(set(base) & set(cur))
    missing = sorted(set(base) - set(cur))
    added = sorted(set(cur) - set(base))
    if not matched:
        die("bench_compare: no rows in common between the files")

    per_row = []
    log_sum = 0.0
    for name in matched:
        ratio = cur[name] / base[name]
        log_sum += math.log(ratio)
        per_row.append({
            "name": name,
            "baseline": base[name],
            "current": cur[name],
            "ratio": ratio,
        })
    geomean = math.exp(log_sum / len(matched))
    limit = 1.0 + args.threshold
    ok = geomean <= limit

    per_row.sort(key=lambda r: r["ratio"], reverse=True)
    unit = ("ns/iter (current divided by the median ruler ratio)"
            if normalized_by else "ns/iter")
    print(f"bench_compare: {len(matched)} rows matched, "
          f"{len(missing)} missing, {len(added)} new")
    if normalized_by:
        print(f"  normalized by the median ratio "
              f"{normalized_by['median_ratio']:.4f} of "
              f"{len(normalized_by['rulers'])} ruler rows: "
              f"{', '.join(normalized_by['rulers'])}")
    print(f"  {'name':<52} {'base':>12} {'current':>12} {'ratio':>7}")
    for r in per_row:
        flag = "  <-- regression" if r["ratio"] > limit else ""
        print(f"  {r['name']:<52} {r['baseline']:>12.4g} "
              f"{r['current']:>12.4g} {r['ratio']:>7.3f}{flag}")
    print(f"  times in {unit}")
    for name in missing:
        print(f"  missing from current run: {name}")
    for name in added:
        print(f"  new (not in baseline): {name}")
    verdict = "PASS" if ok else "FAIL"
    print(f"bench_compare: geomean ratio {geomean:.4f} "
          f"(limit {limit:.4f}): {verdict}")

    trace_attribution = None
    if not ok and args.trace_diff:
        trace_attribution = attribute_regression(*args.trace_diff)

    if args.json:
        report = {
            "baseline_file": args.baseline,
            "current_file": args.current,
            "threshold": args.threshold,
            "normalized_by": normalized_by,
            "geomean_ratio": geomean,
            "pass": ok,
            "matched_rows": len(matched),
            "per_benchmark": per_row,
            "missing_from_current": missing,
            "new_in_current": added,
            "trace_attribution": trace_attribution,
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
