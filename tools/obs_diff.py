"""Trace-diff perf attribution: compare two manifest-stamped runs.

A "run" is either a machine-readable trace summary (`histest-trace --json`)
or a Google-Benchmark JSON whose context carries the `histest_manifest`
key (bench/bench_micro.cc stamps it). The differ

  * refuses to compare runs whose manifests differ in a *load-bearing*
    field — one where a delta is expected and means nothing about the
    code (thread count) — unless forced;
  * attributes the wall-clock delta between two trace summaries to
    pipeline stages: per-stage seconds delta and each stage's share of
    the total absolute delta, so "the run got 18% slower" becomes
    "the sieve stage contributes 0.83 of that";
  * diffs the kernel-call tallies (the `histest.kernel.*` counters), so a
    perf delta caused by a pipeline change (fused path lost) is visible
    next to the timing it explains;
  * for bench JSONs, reports per-row time ratios sorted by regression.

Library for tools/histest-obs (the CLI) and tools/bench_compare.py
(--trace-diff: on a gate failure, print which stage regressed).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import obs_registry  # noqa: E402  (sibling module, needs the path tweak)

# Manifest fields where a mismatch invalidates the comparison: timings
# taken at different thread counts differ for reasons that say nothing
# about the code under test.
LOAD_BEARING = ("threads",)

# Fields where a mismatch is expected run to run and never gates.
_IGNORED_FIELDS = ("timestamp_unix_ms",)

_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class DiffError(Exception):
    pass


def load_run(path: str) -> dict:
    """Loads a run file, sniffing its kind.

    Returns {kind, manifest, stages, counters, bench_rows}."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise DiffError(f"cannot load {path}: {e}")
    if not isinstance(doc, dict):
        raise DiffError(f"{path}: expected a JSON object")
    if "benchmarks" in doc and "context" in doc:
        manifest = None
        raw = doc["context"].get("histest_manifest")
        if raw is not None:
            try:
                manifest = json.loads(raw)
            except json.JSONDecodeError as e:
                raise DiffError(f"{path}: bad histest_manifest context: {e}")
        rows = {}
        for row in doc.get("benchmarks", []):
            if row.get("run_type", "iteration") != "iteration":
                continue
            name = row.get("name")
            time = row.get("real_time")
            unit = row.get("time_unit", "ns")
            if name is None or time is None or unit not in _UNIT_TO_NS:
                continue
            rows[name] = time * _UNIT_TO_NS[unit]
        return {"kind": "bench", "path": path, "manifest": manifest,
                "stages": {}, "counters": {}, "bench_rows": rows}
    if "stages" in doc and "budget" in doc:
        if doc.get("dump") == "flight_recorder":
            raise DiffError(
                f"{path}: flight-recorder dumps carry no stage timings; "
                f"diff trace summaries or bench JSONs")
        return {"kind": "trace_summary", "path": path,
                "manifest": doc.get("manifest"),
                "stages": doc.get("stages", {}),
                "counters": doc.get("counters", {}),
                "bench_rows": {}}
    raise DiffError(
        f"{path}: not a histest-trace --json summary or a Google-Benchmark "
        f"JSON")


def manifest_mismatches(a: dict, b: dict) -> dict:
    """Field-by-field manifest comparison.

    Returns {"load_bearing": [(field, a, b)], "informational": [...],
    "missing": [path-without-manifest, ...]}."""
    out = {"load_bearing": [], "informational": [], "missing": []}
    for run in (a, b):
        if not run.get("manifest"):
            out["missing"].append(run["path"])
    if out["missing"]:
        return out
    ma, mb = a["manifest"], b["manifest"]
    try:
        keys = obs_registry.load_manifest()["keys"]
    except (OSError, obs_registry.ParseError):
        keys = sorted(set(ma) | set(mb))  # detached from a source checkout
    for key in keys:
        if key in _IGNORED_FIELDS or key == "params":
            continue  # params legitimately differ (e.g. --trace-out path)
        va, vb = ma.get(key), mb.get(key)
        if va == vb:
            continue
        bucket = "load_bearing" if key in LOAD_BEARING else "informational"
        out[bucket].append((key, va, vb))
    return out


def diff_runs(a: dict, b: dict) -> dict:
    """The attribution report; callers gate on manifest_mismatches first."""
    report = {
        "kind": a["kind"],
        "baseline": a["path"],
        "current": b["path"],
        "stages": [],
        "counters": [],
        "bench_rows": [],
        "total_delta_seconds": 0.0,
    }

    names = sorted(set(a["stages"]) | set(b["stages"]))
    deltas = []
    for name in names:
        sa = a["stages"].get(name, {})
        sb = b["stages"].get(name, {})
        da = float(sa.get("seconds", 0.0))
        db = float(sb.get("seconds", 0.0))
        deltas.append({
            "stage": name,
            "baseline_seconds": da,
            "current_seconds": db,
            "delta_seconds": db - da,
            "ratio": (db / da) if da > 0 else None,
        })
    total_abs = sum(abs(d["delta_seconds"]) for d in deltas)
    for d in deltas:
        d["attribution"] = (abs(d["delta_seconds"]) / total_abs
                            if total_abs > 0 else 0.0)
    deltas.sort(key=lambda d: abs(d["delta_seconds"]), reverse=True)
    report["stages"] = deltas
    report["total_delta_seconds"] = sum(d["delta_seconds"] for d in deltas)

    tallies = sorted(
        n for n in set(a["counters"]) | set(b["counters"])
        if n.startswith("histest.kernel."))
    for name in tallies:
        ca = int(a["counters"].get(name, 0))
        cb = int(b["counters"].get(name, 0))
        if ca != cb:
            report["counters"].append(
                {"name": name, "baseline": ca, "current": cb,
                 "delta": cb - ca})

    rows = sorted(set(a["bench_rows"]) & set(b["bench_rows"]))
    bench = []
    for name in rows:
        ta, tb = a["bench_rows"][name], b["bench_rows"][name]
        bench.append({"name": name, "baseline_ns": ta, "current_ns": tb,
                      "ratio": tb / ta if ta > 0 else None})
    bench.sort(key=lambda r: r["ratio"] or 0.0, reverse=True)
    report["bench_rows"] = bench
    return report


def _fmt_mismatch(field, va, vb) -> str:
    return f"  {field}: {va!r} -> {vb!r}"


def render_gate(mismatches: dict, force: bool) -> "tuple[list[str], bool]":
    """Human lines for the manifest gate; ok=False means refuse to diff."""
    lines = []
    ok = True
    for path in mismatches["missing"]:
        lines.append(f"histest-obs: {path}: no RunManifest; comparing "
                     f"unattributed runs")
    for field, va, vb in mismatches["load_bearing"]:
        lines.append(f"histest-obs: load-bearing manifest field differs:")
        lines.append(_fmt_mismatch(field, va, vb))
    if mismatches["load_bearing"] and not force:
        lines.append(
            "histest-obs: refusing to attribute timings across these "
            "configurations (re-run on matching hardware/config, or pass "
            "--force to compare anyway)")
        ok = False
    for field, va, vb in mismatches["informational"]:
        lines.append(f"histest-obs: note: manifest field differs: "
                     f"{field}: {va!r} -> {vb!r}")
    return lines, ok


def render_report(report: dict) -> str:
    lines = [f"histest-obs diff: {report['baseline']} -> "
             f"{report['current']}"]
    if report["stages"]:
        total = report["total_delta_seconds"]
        lines.append(f"stage attribution (total wall delta "
                     f"{total:+.3f}s):")
        lines.append(f"  {'stage':<14} {'base(s)':>9} {'cur(s)':>9} "
                     f"{'delta(s)':>9} {'ratio':>6} {'share':>6}")
        for d in report["stages"]:
            ratio = f"{d['ratio']:.2f}" if d["ratio"] is not None else "-"
            lines.append(
                f"  {d['stage']:<14} {d['baseline_seconds']:>9.3f} "
                f"{d['current_seconds']:>9.3f} "
                f"{d['delta_seconds']:>+9.3f} {ratio:>6} "
                f"{d['attribution']:>6.2f}")
    if report["counters"]:
        lines.append("kernel-call tally deltas:")
        width = max(len(c["name"]) for c in report["counters"])
        for c in report["counters"]:
            lines.append(f"  {c['name'].ljust(width)}  "
                         f"{c['baseline']} -> {c['current']} "
                         f"({c['delta']:+d})")
    if report["bench_rows"]:
        lines.append("bench rows by ratio (current/baseline):")
        for r in report["bench_rows"][:20]:
            ratio = f"{r['ratio']:.3f}" if r["ratio"] is not None else "-"
            lines.append(f"  {r['name']:<52} {ratio}")
        if len(report["bench_rows"]) > 20:
            lines.append(f"  ... {len(report['bench_rows']) - 20} more "
                         f"rows (use --json for all)")
    if not (report["stages"] or report["counters"] or report["bench_rows"]):
        lines.append("no comparable stages, tallies, or bench rows")
    return "\n".join(lines)
