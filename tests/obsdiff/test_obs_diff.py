#!/usr/bin/env python3
"""Contract tests for tools/histest-obs diff over the committed fixtures.

The fixtures seed a synthetic regression (the sieve stage 3x slower, the
fused_counts_z kernel tally doubled) plus a run taken at a different
thread count. The tests pin down: stage attribution lands on the seeded
stage, kernel tally deltas are reported, identical runs attribute nothing,
and the load-bearing manifest gate refuses (exit 2) unless --force.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
HISTEST_OBS = ROOT / "tools" / "histest-obs"

BASELINE = HERE / "baseline_summary.json"
SLOW = HERE / "slow_sieve_summary.json"
OTHER_THREADS = HERE / "other_threads_summary.json"

_failures = []


def check(name, cond, detail=""):
    status = "ok" if cond else "FAIL"
    print(f"  {status}: {name}" + (f" ({detail})" if detail and not cond else ""))
    if not cond:
        _failures.append(name)


def run_diff(*argv):
    return subprocess.run(
        [sys.executable, str(HISTEST_OBS), "diff", *argv],
        capture_output=True, text=True)


def test_seeded_slowdown_attributes_to_sieve():
    print("seeded slowdown attribution:")
    proc = run_diff(str(BASELINE), str(SLOW), "--json")
    check("exit 0", proc.returncode == 0, proc.stderr)
    report = json.loads(proc.stdout)
    stages = report["stages"]
    check("sieve ranked first", stages[0]["stage"] == "sieve",
          str([s["stage"] for s in stages]))
    check("sieve ratio 3.0", abs(stages[0]["ratio"] - 3.0) < 1e-9,
          str(stages[0]["ratio"]))
    check("sieve takes >90% of the attribution",
          stages[0]["attribution"] > 0.9, str(stages[0]["attribution"]))
    check("attributions sum to 1",
          abs(sum(s["attribution"] for s in stages) - 1.0) < 1e-9)
    check("total delta ~ +1.02s",
          abs(report["total_delta_seconds"] - 1.02) < 1e-9,
          str(report["total_delta_seconds"]))
    tallies = {c["name"]: c["delta"] for c in report["counters"]}
    check("fused_counts_z tally delta +1000",
          tallies.get("histest.kernel.fused_counts_z") == 1000,
          str(tallies))
    check("unchanged tallies not reported",
          "histest.kernel.fused_expand_l1" not in tallies, str(tallies))


def test_identical_runs_attribute_nothing():
    print("identical runs:")
    proc = run_diff(str(BASELINE), str(BASELINE), "--json")
    check("exit 0", proc.returncode == 0, proc.stderr)
    report = json.loads(proc.stdout)
    check("zero total delta", report["total_delta_seconds"] == 0.0)
    check("zero attribution everywhere",
          all(s["attribution"] == 0.0 for s in report["stages"]))
    check("no tally deltas", report["counters"] == [])


def test_load_bearing_mismatch_gates():
    print("load-bearing manifest gate:")
    proc = run_diff(str(BASELINE), str(OTHER_THREADS))
    check("refused with exit 2", proc.returncode == 2, str(proc.returncode))
    check("refusal names the field", "threads" in proc.stderr,
          proc.stderr)
    check("refusal explains itself", "refusing" in proc.stderr, proc.stderr)

    forced = run_diff(str(BASELINE), str(OTHER_THREADS), "--force", "--json")
    check("--force compares anyway", forced.returncode == 0, forced.stderr)
    report = json.loads(forced.stdout)
    check("forced flag recorded",
          report["manifest_mismatches"]["forced"] is True)
    check("mismatch recorded", any(
        m[0] == "threads"
        for m in report["manifest_mismatches"]["load_bearing"]))


def test_malformed_input_is_a_usage_error():
    print("malformed input:")
    proc = run_diff(str(HERE / "test_obs_diff.py"), str(BASELINE))
    check("exit 1", proc.returncode == 1, str(proc.returncode))


def main():
    test_seeded_slowdown_attributes_to_sieve()
    test_identical_runs_attribute_nothing()
    test_load_bearing_mismatch_gates()
    test_malformed_input_is_a_usage_error()
    if _failures:
        print(f"FAILED: {len(_failures)} check(s): {_failures}")
        return 1
    print("all histest-obs diff contract checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
