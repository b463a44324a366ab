#!/usr/bin/env python3
"""Smoke test of bench_e2e against the metric list in BENCHMARK.json.

    smoke.py --binary <bench_e2e> --benchmark <BENCHMARK.json>

Runs every workload at --scale 0.05 with --trace 0 and --trace 1 and
checks that:
  * each run exits 0 and ends in the JSON result line, whose metrics are
    exactly the end-to-end (trace 0) or per-layer (trace 1) metrics of
    BENCHMARK.json, each with its unit;
  * every end-to-end metric is also printed as a "metric" line with its
    unit, and fail_rate is 0;
  * tester.other_s is at most 5% of the traced test wall time, so the
    timed layers add up to the measured time;
  * the held-out seed builds other instances (another grid fingerprint)
    but reports the same metric set as the default seed.
"""

import argparse
import json
import subprocess
import sys

HELD_OUT_SEED = 8675309
STAGES = ("approx_part", "learner", "expand", "sieve", "check", "final")


def run(binary, workload, trace, seed=None):
    cmd = [binary, "--workload", workload, "--seconds", "0", "--scale",
           "0.05", "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=240)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    header = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[:1] == ["metric"] and len(parts) == 4:
            printed[parts[1]] = (float(parts[2]), parts[3])
        elif parts[:2] == ["#", "bench_e2e"]:
            header = dict(p.split("=", 1) for p in parts[2:])
    return result, printed, header


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", required=True)
    ap.add_argument("--benchmark", required=True)
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}

    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result, printed, _ = run(args.binary, workload, trace)
            where = f"{workload} --trace {trace}"
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{where}: result keys")
            expect(result["correct"] is True, f"{where}: not correct")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{where}: attempted/failed {result}")
            metrics = result["metrics"]
            expect(set(metrics) == set(units[trace]),
                   f"{where}: metrics {sorted(set(metrics) ^ set(units[trace]))}"
                   " differ from BENCHMARK.json")
            for name, unit in units[trace].items():
                expect(metrics[name]["unit"] == unit, f"{where}: {name} unit")
            for name, unit in list(units[0].items()) + [("fail_rate",
                                                          "fraction")]:
                expect(printed.get(name, (0, None))[1] == unit,
                       f"{where}: {name} not printed with unit {unit}")
            expect(printed["fail_rate"][0] == 0.0, f"{where}: fail_rate")
            if trace == 1:
                wall = sum(metrics[f"{s}.s"]["value"] for s in STAGES)
                other = metrics["tester.other_s"]["value"]
                wall += other
                expect(other <= 0.05 * wall,
                       f"{where}: tester.other_s {other} > 5% of {wall}")
            print(f"ok {where}")

    default = run(args.binary, "sample-bound", 0)
    held_out = run(args.binary, "sample-bound", 0, HELD_OUT_SEED)
    expect(default[2]["fingerprint"] != held_out[2]["fingerprint"],
           "the held-out seed built the same instances")
    expect(set(default[0]["metrics"]) == set(held_out[0]["metrics"]) and
           set(default[1]) == set(held_out[1]),
           "the held-out seed changed the metric set")
    print(f"ok held-out seed {HELD_OUT_SEED}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        sys.exit(1)
