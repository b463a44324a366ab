#!/usr/bin/env python3
"""Checks that two sets of bench_e2e runs agree within the benchmark's bounds.

    agree.py [--benchmark BENCHMARK.json] SET_A SET_B

Each set is a directory of run outputs (the stdout of bench_e2e or run.py,
one file per run). For every (workload, end-to-end metric) pair present in
both sets, the medians over the --trace 0 runs must agree within the
metric's bound in BENCHMARK.json, in either direction. For every (workload, seed, trace)
present in both sets, the seed-determined counts must be equal exactly.
Exits 0 when everything agrees, 1 otherwise.
"""

import argparse
import json
import pathlib
import statistics
import sys

EXACT = ("samples_per_test", "error_rate", "oracle.samples",
         "check.dp_cost_probes")


def load(directory):
    """{(workload, seed, trace): [{metric: value}, ...]} of a run set."""
    runs = {}
    for path in sorted(pathlib.Path(directory).iterdir()):
        header, metrics = None, {}
        for line in path.read_text().splitlines():
            parts = line.split()
            if parts[:2] == ["#", "bench_e2e"]:
                header = dict(p.split("=", 1) for p in parts[2:])
            elif parts[:1] == ["metric"] and len(parts) == 4:
                metrics[parts[1]] = float(parts[2])
        if header is None:
            sys.exit(f"agree.py: {path} is not a bench_e2e run output")
        key = (header["workload"], header["seed"], header["trace"])
        runs.setdefault(key, []).append(metrics)
    return runs


def main():
    here = pathlib.Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--benchmark", default=here.parents[1] / "BENCHMARK.json")
    ap.add_argument("set_a")
    ap.add_argument("set_b")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"]
              for m in json.loads(pathlib.Path(args.benchmark).read_text())
              ["end_to_end"]}
    a, b = load(args.set_a), load(args.set_b)
    ok = True

    def by_workload(runs):
        # A traced run's end-to-end lines come from its shorter untraced
        # phase, so only --trace 0 runs enter the medians.
        out = {}
        for (workload, _, trace), metric_runs in runs.items():
            if trace == "0":
                out.setdefault(workload, []).extend(metric_runs)
        return out

    wa, wb = by_workload(a), by_workload(b)
    for workload in sorted(set(wa) & set(wb)):
        for name, bound in bounds.items():
            va = [m[name] for m in wa[workload] if name in m]
            vb = [m[name] for m in wb[workload] if name in m]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            rel = abs(mb - ma) / abs(ma) if ma else float(mb != ma)
            good = rel <= bound
            ok &= good
            print(f"{'ok ' if good else 'BAD'} {workload:13s} {name:18s} "
                  f"{ma:14.6g} {mb:14.6g} diff {rel:7.2%} bound {bound:.0%}")

    common = sorted(set(a) & set(b))
    for key in common:
        for name in EXACT:
            values = {m[name] for m in a[key] + b[key] if name in m}
            if len(values) > 1:
                ok = False
                print(f"BAD {key} {name} not exact: {sorted(values)}")
    print(f"{len(common)} (workload, seed, trace) keys compared exactly")
    if not wa.keys() & wb.keys():
        print("no workload in both sets")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
