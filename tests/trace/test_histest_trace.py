#!/usr/bin/env python3
"""Round-trip test for the trace pipeline, run by ctest.

A C++ emitter binary (tests/trace_emit_main.cc) runs a real traced
HistogramTester pass under a FakeClock and writes the JSONL wire format;
this test feeds that file through tools/histest-trace and asserts the
summary is structurally sound: schema version honored, per-stage sample
totals consistent with the metrics counters, budget table populated, and
a schema mismatch rejected with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
TRACE_BIN = REPO_ROOT / "tools" / "histest-trace"

EMITTER = None  # set from --emitter in __main__


def run_trace(args):
    return subprocess.run(
        [sys.executable, str(TRACE_BIN), *args],
        capture_output=True, text=True)


class RoundTripTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = pathlib.Path(tempfile.mkdtemp(prefix="histest-trace-"))
        cls.jsonl = cls.tmp / "trace.jsonl"
        proc = subprocess.run([str(EMITTER), str(cls.jsonl)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"emitter failed: {proc.stderr}")

    def test_wire_format_schema(self):
        lines = self.jsonl.read_text().splitlines()
        self.assertGreater(len(lines), 3)
        header = json.loads(lines[0])
        self.assertEqual(header["type"], "header")
        self.assertEqual(header["schema_version"], 2)
        self.assertEqual(header["tool"], "histest")
        # Schema v2: the provenance manifest rides along as record two.
        manifest_rec = json.loads(lines[1])
        self.assertEqual(manifest_rec["type"], "manifest")
        manifest = manifest_rec["manifest"]
        self.assertEqual(manifest["manifest_version"], 2)
        self.assertIn("git_describe", manifest)
        self.assertIn("cpu_features", manifest)
        self.assertNotIn("simd_variant", manifest)
        # The emitter masks the timestamp for byte-identical reruns.
        self.assertEqual(manifest["timestamp_unix_ms"], 0)
        kinds = [json.loads(l)["type"] for l in lines[2:]]
        self.assertEqual(kinds[-1], "metrics")
        self.assertTrue(all(k == "span" for k in kinds[:-1]))

    def test_text_summary_renders_stages(self):
        proc = run_trace([str(self.jsonl)])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("per-stage breakdown:", proc.stdout)
        self.assertIn("budget vs theory", proc.stdout)
        for stage in ("approx_part", "learner", "sieve", "final"):
            self.assertIn(stage, proc.stdout)

    def test_json_summary_is_consistent(self):
        proc = run_trace([str(self.jsonl), "--json"])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        summary = json.loads(proc.stdout)
        self.assertEqual(summary["schema_version"], 2)
        self.assertEqual(summary["tests"], 1)
        self.assertIsInstance(summary["manifest"], dict)
        self.assertEqual(summary["manifest"]["manifest_version"], 2)
        self.assertGreater(summary["spans"], 1)
        # Span annotations and metrics counters are two independent
        # accounting paths; they must agree stage by stage.
        counters = summary["counters"]
        for stage, entry in summary["stages"].items():
            if stage == "check":
                self.assertEqual(entry["samples"], 0)
                continue
            key = f"histest.stage.{stage}.samples_drawn"
            self.assertEqual(entry["samples"], counters.get(key, 0), stage)
        stage_total = sum(e["samples"] for e in summary["stages"].values())
        oracle_total = counters.get("histest.oracle.counts_samples", 0) + \
            counters.get("histest.oracle.batch_samples", 0)
        self.assertEqual(stage_total, oracle_total)
        self.assertGreater(stage_total, 0)
        for stage, b in summary["budget"].items():
            self.assertGreater(b["theory_shape"], 0.0, stage)

    def test_fused_adoption_and_arena_gauge_render(self):
        # The traced tester pass runs the dense Z statistic through the
        # fused counts kernel and draws its dstar scratch from the trial
        # arena; both must surface in the summaries.
        proc = run_trace([str(self.jsonl)])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("fused-kernel adoption", proc.stdout)
        self.assertIn("fused_counts_z", proc.stdout)
        self.assertIn("gauges:", proc.stdout)
        self.assertIn("histest.trial.arena_bytes", proc.stdout)
        proc = run_trace([str(self.jsonl), "--json"])
        summary = json.loads(proc.stdout)
        fused = {k: v for k, v in summary["counters"].items()
                 if k.startswith("histest.kernel.fused_")}
        self.assertTrue(fused, sorted(summary["counters"]))
        self.assertTrue(all(v > 0 for v in fused.values()), fused)
        self.assertGreater(
            summary["counters"].get("histest.kernel.fused_counts_z.calls", 0),
            0)
        self.assertGreater(
            summary["gauges"].get("histest.trial.arena_bytes", 0), 0)

    def test_deterministic_reruns_are_identical(self):
        # FakeClock timing: a rerun of the emitter must produce a
        # byte-identical trace file.
        again = self.tmp / "trace_again.jsonl"
        proc = subprocess.run([str(EMITTER), str(again)],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(again.read_bytes(), self.jsonl.read_bytes())

    def test_schema_mismatch_exits_two(self):
        bad = self.tmp / "trace_bad.jsonl"
        proc = subprocess.run([str(EMITTER), str(bad), "--bad-version"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        proc = run_trace([str(bad)])
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("schema_version", proc.stderr)

    def test_truncated_trace_exits_three(self):
        # Strip the trailing metrics record: a regular trace without it is
        # a writer that died mid-run, reported distinctly (exit 3) from
        # both malformed input (1) and flight-recorder dumps (0).
        lines = self.jsonl.read_text().splitlines()
        self.assertEqual(json.loads(lines[-1])["type"], "metrics")
        truncated = self.tmp / "trace_truncated.jsonl"
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        proc = run_trace([str(truncated)])
        self.assertEqual(proc.returncode, 3, proc.stdout + proc.stderr)
        self.assertIn("truncated", proc.stderr)
        self.assertIn("flight-recorder", proc.stderr)

    def test_flight_recorder_dump_summarizes(self):
        # A dump shares the header+manifest framing but carries event
        # records and no metrics trailer; the header's `dump` marker routes
        # it to the post-mortem summary rather than the truncation error.
        lines = self.jsonl.read_text().splitlines()
        header = json.loads(lines[0])
        header["dump"] = "flight_recorder"
        header["reason"] = "signal:6"
        header["dropped"] = 0
        events = [
            {"type": "event", "thread": 0, "seq": 0, "ns": 10,
             "kind": "mark", "name": "t.dump_mark", "value": 1},
            {"type": "event", "thread": 0, "seq": 1, "ns": 20,
             "kind": "check_fail", "name": "foo.cc:42", "value": 0},
        ]
        dump = self.tmp / "dump.jsonl"
        dump.write_text("\n".join(
            [json.dumps(header), lines[1]] +
            [json.dumps(e) for e in events]) + "\n")
        proc = run_trace([str(dump), "--json"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        summary = json.loads(proc.stdout)
        self.assertEqual(summary["dump"], "flight_recorder")
        self.assertEqual(summary["reason"], "signal:6")
        self.assertEqual(summary["events"], 2)
        self.assertEqual(summary["kinds"]["check_fail"], 1)
        self.assertEqual(summary["check_fails"], ["foo.cc:42"])
        self.assertIsInstance(summary["manifest"], dict)
        text = run_trace([str(dump)])
        self.assertEqual(text.returncode, 0, text.stderr)
        self.assertIn("flight-recorder dump", text.stdout)
        self.assertIn("signal:6", text.stdout)

    def test_missing_file_exits_one(self):
        proc = run_trace([str(self.tmp / "nope.jsonl")])
        self.assertEqual(proc.returncode, 1)


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--emitter", required=True,
                        help="path to the trace_emit binary")
    opts, remaining = parser.parse_known_args()
    EMITTER = pathlib.Path(opts.emitter).resolve()
    if not EMITTER.exists():
        print(f"emitter not found: {EMITTER}", file=sys.stderr)
        sys.exit(2)
    unittest.main(argv=[sys.argv[0], *remaining], verbosity=2)
