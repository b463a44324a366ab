#!/usr/bin/env python3
"""Checks bench_e2e's seed-determined counts against E2E_COUNTS.json.

Runs each workload through bench/e2e/run.py at its default seed with no
timed phase and compares the grid fingerprint and samples_per_test with
the committed file; a mismatch exits 1. --update rewrites the file: only
for a change meant to move these counts, with a CHANGES.md line saying why.

    python3 tools/e2e_counts.py [--update]
"""

import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "E2E_COUNTS.json"
WORKLOADS = ["sample-bound", "dp-bound", "wide-domain", "pooled"]


def counts(workload):
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench/e2e/run.py"), "--workload", workload,
         "--seconds", "0", "--scale", "0.25", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return {"fingerprint": re.search(r"fingerprint=(\w+)", out).group(1),
            "samples_per_test": re.search(
                r"^metric samples_per_test (\S+)", out, re.M).group(1)}


def main():
    got = {w: counts(w) for w in WORKLOADS}
    if "--update" in sys.argv[1:]:
        EXPECTED.write_text(json.dumps(got, indent=2) + "\n")
        return 0
    want = json.loads(EXPECTED.read_text())
    bad = [f"{w} {key}: expected {want.get(w, {}).get(key)}, got {value}"
           for w in WORKLOADS for key, value in got[w].items()
           if want.get(w, {}).get(key) != value]
    print("\n".join(bad + ["e2e counts: " + ("MISMATCH" if bad else "match")]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
