#!/usr/bin/env python3
"""CI gate over trace summaries and obs-layer overhead benchmarks.

Two independent checks, each enabled by the corresponding flag:

  --summary <file.json> ...
      One or more machine-readable summaries from `histest-trace --json`.
      Fails if any budget-table stage (the sample-drawing stages of
      Algorithm 1) measured zero samples: a zero there means the traced
      smoke run silently skipped a stage, so the per-stage accounting can
      no longer be trusted. Also fails when a summary carries no valid
      RunManifest record (every gated trace must state its provenance:
      all HISTEST_MANIFEST_FIELDS keys present, at a schema version this
      checkout understands).

  --bench <bench_micro.json>
      Google-benchmark JSON output containing the BM_Obs*Disabled
      benchmarks and at least one instrumented kernel benchmark. Fails if
      any disabled-mode obs entry point costs more than
      --max-overhead-ratio (default 0.02) of the cheapest instrumented
      kernel invocation: that ratio is the worst-case per-call-site
      overhead tracing can add to a kernel-bound workload when disabled.

Exit code 0 when every requested check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import obs_registry  # noqa: E402  (sibling module, needs the path tweak)

# Disabled-mode obs entry points that must be near-free.
OBS_DISABLED_BENCHMARKS = (
    "BM_ObsCounterAddDisabled",
    "BM_ObsTraceSpanDisabled",
    "BM_ObsRecorderEventDisabled",
)

# Instrumented kernels used as the denominator: each of these calls
# obs::AddCount once per invocation, so "obs cost / kernel cost" is
# literally the fractional overhead of that call site.
KERNEL_BENCHMARK_PREFIXES = (
    "BM_L1DistanceKernel",
    "BM_ChiSquareKernel",
    "BM_ZAccumulateKernel",
)


def fail(msg: str) -> None:
    print(f"trace-gate: FAIL: {msg}", file=sys.stderr)


def check_manifest(path: str, summary) -> bool:
    """Every gated trace must carry a complete, current-schema manifest."""
    try:
        reg = obs_registry.load_manifest()
    except (OSError, obs_registry.ParseError) as e:
        fail(f"cannot load manifest field inventory: {e}")
        return False
    manifest = summary.get("manifest")
    if not isinstance(manifest, dict) or not manifest:
        fail(f"{path}: no RunManifest record in the trace; gated runs "
             f"must state their provenance (histest build too old?)")
        return False
    version = manifest.get("manifest_version")
    if version != reg["version"]:
        fail(f"{path}: manifest_version {version} != supported "
             f"{reg['version']}")
        return False
    missing = [k for k in reg["keys"] if k not in manifest]
    if missing:
        fail(f"{path}: manifest is missing field(s): {', '.join(missing)}")
        return False
    print(f"trace-gate: {path}: manifest v{version} complete "
          f"({len(reg['keys'])} fields, git {manifest.get('git_describe')}) "
          f"ok", file=sys.stderr)
    return True


def check_summaries(paths) -> bool:
    ok = True
    try:
        known = obs_registry.known_names()
    except (OSError, obs_registry.ParseError) as e:
        fail(f"cannot load obs name registry: {e}")
        return False
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as f:
                summary = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"cannot load summary {path}: {e}")
            ok = False
            continue
        budget = summary.get("budget", {})
        if not budget:
            fail(f"{path}: no budget table (empty trace?)")
            ok = False
            continue
        for stage, row in sorted(budget.items()):
            measured = row.get("measured", 0)
            if measured <= 0:
                fail(f"{path}: budget stage {stage!r} measured "
                     f"{measured} samples; the traced run skipped it")
                ok = False
            else:
                print(f"trace-gate: {path}: {stage}: "
                      f"{measured} samples ok")
        if summary.get("tests", 0) <= 0:
            fail(f"{path}: no histogram_test spans recorded")
            ok = False
        ok = check_manifest(path, summary) and ok
        # Every emitted metric name must resolve through the
        # src/obs/names.h registry — an unknown name here means a call
        # site bypassed the registry (or the registry lost an entry), the
        # exact drift obs-name-discipline exists to prevent.
        emitted = set(summary.get("counters", {}))
        emitted |= set(summary.get("gauges", {}))
        unknown = sorted(emitted - known)
        if unknown:
            fail(f"{path}: metric names missing from src/obs/names.h: "
                 f"{', '.join(unknown)}")
            ok = False
        elif emitted:
            # stderr: the stdout log format predates the registry check and
            # is diffed by downstream tooling.
            print(f"trace-gate: {path}: {len(emitted)} metric names "
                  f"all registered in src/obs/names.h ok", file=sys.stderr)
    return ok


def _per_iter_ns(entry) -> float:
    # google-benchmark reports per-iteration time in `time_unit` units.
    unit = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[
        entry.get("time_unit", "ns")]
    return float(entry["cpu_time"]) * unit


def check_bench(path: str, max_ratio: float) -> bool:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load benchmark output {path}: {e}")
        return False
    entries = {
        b["name"]: b
        for b in data.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    }

    kernel_ns = [
        _per_iter_ns(b) for name, b in entries.items()
        if name.startswith(KERNEL_BENCHMARK_PREFIXES)
    ]
    if not kernel_ns:
        fail(f"{path}: no instrumented kernel benchmarks found "
             f"(need one of {', '.join(KERNEL_BENCHMARK_PREFIXES)})")
        return False
    denom = min(kernel_ns)

    ok = True
    for name in OBS_DISABLED_BENCHMARKS:
        if name not in entries:
            fail(f"{path}: missing benchmark {name}")
            ok = False
            continue
        obs_ns = _per_iter_ns(entries[name])
        ratio = obs_ns / denom
        line = (f"{name}: {obs_ns:.2f} ns/call = {100.0 * ratio:.3f}% of "
                f"cheapest instrumented kernel ({denom:.0f} ns)")
        if ratio > max_ratio:
            fail(f"{path}: {line} exceeds {100.0 * max_ratio:.1f}%")
            ok = False
        else:
            print(f"trace-gate: {line} ok")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trace_gate.py",
        description="Fail CI on broken trace accounting or obs overhead.")
    parser.add_argument("--summary", nargs="+", default=[],
                        help="histest-trace --json summaries to check")
    parser.add_argument("--bench", default=None,
                        help="bench_micro JSON with BM_Obs* benchmarks")
    parser.add_argument("--max-overhead-ratio", type=float, default=0.02,
                        help="max disabled-mode obs cost as a fraction of "
                             "the cheapest instrumented kernel call")
    args = parser.parse_args(argv)
    if not args.summary and args.bench is None:
        parser.error("nothing to check: pass --summary and/or --bench")

    ok = True
    if args.summary:
        ok = check_summaries(args.summary) and ok
    if args.bench is not None:
        ok = check_bench(args.bench, args.max_overhead_ratio) and ok
    print(f"trace-gate: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
