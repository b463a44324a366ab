#!/usr/bin/env python3
"""Contract tests for tools/bench_compare.py (the CI bench regression gate).

Deterministic, no benchmark binary involved: synthetic Google-Benchmark
JSON documents exercise the gate's accept/reject logic, most importantly
that a seeded 30% across-the-board slowdown is rejected at the default 15%
threshold.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "tools", "bench_compare.py")

BASELINE = {
    "context": {"host_name": "synthetic"},
    "benchmarks": [
        {"name": "BM_FusedExpandL1_scalar/1048576", "run_type": "iteration",
         "real_time": 1000.0, "time_unit": "us", "iterations": 100},
        {"name": "BM_FusedExpandL2_scalar/1048576", "run_type": "iteration",
         "real_time": 900.0, "time_unit": "us", "iterations": 100},
        {"name": "BM_FusedCountsZ_scalar/1048576", "run_type": "iteration",
         "real_time": 1.1, "time_unit": "ms", "iterations": 100},
        {"name": "BM_L1DistanceKernel_scalar/1048576",
         "run_type": "iteration",
         "real_time": 1200.0, "time_unit": "us", "iterations": 100},
        # Aggregates must be ignored, not treated as extra rows.
        {"name": "BM_FusedExpandL1_scalar/1048576_mean",
         "run_type": "aggregate",
         "real_time": 999.0, "time_unit": "us", "iterations": 3},
    ],
}


# BASELINE plus three ruler rows, for the median-of-rulers normalization.
RULED = copy.deepcopy(BASELINE)
RULED["benchmarks"] += [
    {"name": name, "run_type": "iteration", "real_time": t,
     "time_unit": "us", "iterations": 100}
    for name, t in (("BM_L1DistanceKernel/262144", 204.0),
                    ("BM_ChiSquareKernel/262144", 379.0),
                    ("BM_ZAccumulateKernel/262144", 474.0))]
RULERS = r"^BM_(L1Distance|ChiSquare|ZAccumulate)Kernel/262144$"


def scaled(doc, factor, only=None):
    out = copy.deepcopy(doc)
    for row in out["benchmarks"]:
        if only is None or row["name"] in only:
            row["real_time"] *= factor
    return out


def run_gate(baseline, current, *extra_args):
    """Writes the two docs to files and runs the tool; returns (rc, report)."""
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.json")
        cur_path = os.path.join(tmp, "cur.json")
        report_path = os.path.join(tmp, "report.json")
        for path, doc in ((base_path, baseline), (cur_path, current)):
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
        proc = subprocess.run(
            [sys.executable, TOOL, base_path, cur_path,
             "--json", report_path, *extra_args],
            capture_output=True, text=True)
        report = None
        if os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as f:
                report = json.load(f)
        return proc, report


class BenchCompareTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        proc, report = run_gate(BASELINE, BASELINE)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertTrue(report["pass"])
        self.assertAlmostEqual(report["geomean_ratio"], 1.0)
        self.assertEqual(report["matched_rows"], 4)  # aggregate row ignored

    def test_seeded_30_percent_slowdown_is_rejected(self):
        proc, report = run_gate(BASELINE, scaled(BASELINE, 1.3))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertFalse(report["pass"])
        self.assertAlmostEqual(report["geomean_ratio"], 1.3, places=6)
        self.assertIn("FAIL", proc.stdout)

    def test_small_noise_passes(self):
        proc, report = run_gate(BASELINE, scaled(BASELINE, 1.10))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertTrue(report["pass"])

    def test_speedup_passes(self):
        proc, _ = run_gate(BASELINE, scaled(BASELINE, 0.6))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_normalization_cancels_uniform_machine_speed(self):
        # A uniformly 2x slower machine is not a regression once times are
        # expressed relative to the ruler row.
        proc, report = run_gate(
            BASELINE, scaled(BASELINE, 2.0),
            "--normalize", r"BM_L1DistanceKernel_scalar/1048576$")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertAlmostEqual(report["geomean_ratio"], 1.0)
        self.assertEqual(report["matched_rows"], 3)  # ruler excluded

    def test_normalization_still_catches_relative_regression(self):
        # Same machine speed, but every non-ruler kernel got 30% slower.
        slow = scaled(BASELINE, 1.3)
        for row in slow["benchmarks"]:
            if row["name"] == "BM_L1DistanceKernel_scalar/1048576":
                row["real_time"] = 1200.0  # ruler unchanged
        proc, report = run_gate(
            BASELINE, slow,
            "--normalize", r"BM_L1DistanceKernel_scalar/1048576$")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertAlmostEqual(report["geomean_ratio"], 1.3, places=6)

    def test_one_noisy_ruler_does_not_move_the_verdict(self):
        # Three rulers; on the current run one of them read 1.5x slow (a
        # loaded host), the others and every gated row unchanged. The
        # median ratio is 1.0, so every other row reads 1.0 and only the
        # noisy ruler's own row reads 1.5; a single-ruler gate on the noisy
        # row would have read every row as 0.67.
        current = scaled(RULED, 1.5, only={"BM_ChiSquareKernel/262144"})
        proc, report = run_gate(RULED, current, "--normalize", RULERS)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertAlmostEqual(report["geomean_ratio"], 1.5 ** (1 / 7))
        self.assertAlmostEqual(report["normalized_by"]["median_ratio"], 1.0)
        self.assertEqual(len(report["normalized_by"]["rulers"]), 3)
        self.assertEqual(report["matched_rows"], 7)  # rulers stay gated

    def test_a_slower_ruler_row_still_counts_in_the_geomean(self):
        # One ruler kernel got 3x slower and nothing else moved: the median
        # passes it by for the scale, but its own normalized ratio is in
        # the geomean, as it would be for any other row.
        current = scaled(RULED, 3.0, only={"BM_ZAccumulateKernel/262144"})
        proc, report = run_gate(RULED, current, "--normalize", RULERS)
        ratios = {r["name"]: r["ratio"] for r in report["per_benchmark"]}
        self.assertAlmostEqual(ratios["BM_ZAccumulateKernel/262144"], 3.0)
        self.assertAlmostEqual(report["geomean_ratio"], 3.0 ** (1 / 7))
        # Past the bound once it is the only row, as it would be unruled.
        proc, report = run_gate(
            RULED, current, "--normalize", RULERS,
            "--filter", r"ZAccumulateKernel")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertAlmostEqual(report["geomean_ratio"], 3.0)

    def test_seeded_30_percent_slowdown_fails_with_several_rulers(self):
        # A uniformly 2x slower machine on which every gated row also got
        # 30% slower relative to the rulers, one ruler noisy on top.
        current = scaled(RULED, 2.0)
        gated = {row["name"] for row in RULED["benchmarks"]
                 if "Kernel/262144" not in row["name"]}
        current = scaled(current, 1.3, only=gated)
        current = scaled(current, 1.4, only={"BM_ZAccumulateKernel/262144"})
        proc, report = run_gate(RULED, current, "--normalize", RULERS)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertAlmostEqual(report["geomean_ratio"],
                               (1.3 ** 4 * 1.4) ** (1 / 7), places=6)
        self.assertAlmostEqual(report["normalized_by"]["median_ratio"], 2.0)

    def test_normalize_matching_no_row_is_an_error(self):
        proc, _ = run_gate(BASELINE, BASELINE, "--normalize", "BM_NoSuchRow")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)

    def test_normalize_matching_different_rows_is_an_error(self):
        # A ruler missing from one file would change what the median means.
        current = copy.deepcopy(RULED)
        current["benchmarks"] = [row for row in current["benchmarks"]
                                 if row["name"] != "BM_ChiSquareKernel/262144"]
        for base, cur in ((RULED, current), (current, RULED)):
            proc, _ = run_gate(base, cur, "--normalize", RULERS)
            self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
            self.assertIn("BM_ChiSquareKernel/262144", proc.stderr)

    def test_missing_and_new_rows_are_reported_not_fatal(self):
        current = copy.deepcopy(BASELINE)
        current["benchmarks"][0]["name"] = "BM_Renamed/1"
        proc, report = run_gate(BASELINE, current)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(report["missing_from_current"],
                         ["BM_FusedExpandL1_scalar/1048576"])
        self.assertEqual(report["new_in_current"], ["BM_Renamed/1"])

    def test_filter_restricts_the_comparison(self):
        # Regress only the Z row, then gate on the Fused rows alone: the
        # 30% single-row hit dominates a 3-row geomean and must fail.
        current = scaled(BASELINE, 1.3,
                         only={"BM_FusedCountsZ_scalar/1048576"})
        proc, report = run_gate(BASELINE, current, "--filter", r"BM_Fused",
                                "--threshold", "0.05")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertEqual(report["matched_rows"], 3)

    def test_time_units_are_normalized(self):
        # The ms row equals 1100 us; expressing it in us must not change
        # anything.
        current = copy.deepcopy(BASELINE)
        for row in current["benchmarks"]:
            if row["name"] == "BM_FusedCountsZ_scalar/1048576":
                row["real_time"] = 1100.0
                row["time_unit"] = "us"
        proc, report = run_gate(BASELINE, current)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertAlmostEqual(report["geomean_ratio"], 1.0)

    def test_disjoint_files_error(self):
        current = copy.deepcopy(BASELINE)
        for row in current["benchmarks"]:
            row["name"] = "other_" + row["name"]
        proc, _ = run_gate(BASELINE, current)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
