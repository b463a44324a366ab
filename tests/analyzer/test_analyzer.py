#!/usr/bin/env python3
"""Fixture tests for histest-analyzer, run by ctest.

Each checker gets a bad fixture (known findings at known lines) and a good
fixture (zero findings); suppression handling and the CLI's JSON/SARIF
output and exit codes are asserted on top. Fixtures are copied into a
temporary repo-shaped tree because checker scopes are path-based.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
FIXTURES = HERE / "fixtures"
ANALYZER_DIR = REPO_ROOT / "tools" / "analyzer"
ANALYZER_BIN = ANALYZER_DIR / "histest-analyzer"

sys.path.insert(0, str(ANALYZER_DIR))

from histest_analyzer import engine  # noqa: E402

# Destination of each fixture inside the synthetic tree; placement matters
# because checker scopes are path prefixes.
DEST = {
    # clock-discipline scans every dir; bench/ placement also proves the
    # ban reaches harness code that rng-stream's src/-only time-seed rule
    # does not.
    "clock_discipline_bad.cc": "bench/clock_discipline_bad.cc",
    "clock_discipline_good.cc": "bench/clock_discipline_good.cc",
    "status_discipline_bad.cc": "src/app/status_discipline_bad.cc",
    "status_discipline_good.cc": "src/app/status_discipline_good.cc",
    "raw_accumulate_bad.cc": "src/core/raw_accumulate_bad.cc",
    "raw_accumulate_good.cc": "src/core/raw_accumulate_good.cc",
    "rng_stream_bad.cc": "src/core/rng_stream_bad.cc",
    "rng_stream_good.cc": "src/core/rng_stream_good.cc",
    # simd-discipline scans every dir; src/dist/ placement proves the ban
    # reaches the sampler's hot path.
    "simd_discipline_bad.cc": "src/dist/simd_discipline_bad.cc",
    "simd_discipline_good.cc": "src/dist/simd_discipline_good.cc",
    # lock-discipline scans every dir; src/benchutil/ placement mirrors the
    # thread-pool layer where the wrappers were first adopted.
    "lock_discipline_bad.cc": "src/benchutil/lock_discipline_bad.cc",
    "lock_discipline_good.cc": "src/benchutil/lock_discipline_good.cc",
    "static_state_bad.cc": "src/core/static_state_bad.cc",
    "static_state_good.cc": "src/core/static_state_good.cc",
    # arena-escape scans every dir; src/core/ mirrors the statistic
    # pipeline where trial-scoped arenas live.
    "arena_escape_bad.cc": "src/core/arena_escape_bad.cc",
    "arena_escape_good.cc": "src/core/arena_escape_good.cc",
    # Cross-TU pair: the helper's returns_arena fact must reach a caller
    # in a different directory through the program summary table.
    "arena_escape_cross_helper.cc": "src/core/arena_escape_cross_helper.cc",
    "arena_escape_cross_user.cc":
        "src/histogram/arena_escape_cross_user.cc",
    "view_escape_bad.cc": "src/dist/view_escape_bad.cc",
    "view_escape_good.cc": "src/dist/view_escape_good.cc",
    # obs-name-discipline is scoped to src/.
    "obs_name_bad.cc": "src/core/obs_name_bad.cc",
    "obs_name_good.cc": "src/core/obs_name_good.cc",
    "env_discipline_bad.cc": "src/app/env_discipline_bad.cc",
    "env_discipline_good.cc": "src/app/env_discipline_good.cc",
    "suppression_ok.cc": "src/core/suppression_ok.cc",
    "suppression_missing_reason.cc": "src/core/suppression_missing_reason.cc",
}


def make_tree(names, allowlist=None):
    """Copies fixtures into a fresh temp tree; returns its root."""
    root = pathlib.Path(tempfile.mkdtemp(prefix="histest-analyzer-test-"))
    for name in names:
        dest = root / DEST[name]
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(FIXTURES / name, dest)
    if allowlist is not None:
        cfg = root / "tools" / "analyzer"
        cfg.mkdir(parents=True)
        (cfg / "allowlist.txt").write_text(allowlist)
    return root


def scan(names, checkers=None, allowlist=None, **kwargs):
    root = make_tree(names, allowlist)
    try:
        return engine.run_scan(root, checker_names=checkers,
                               backend="internal", **kwargs)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, str(ANALYZER_BIN), *args],
        capture_output=True, text=True, cwd=cwd or REPO_ROOT)


class CheckerFixtureTest(unittest.TestCase):
    """Bad fixture -> expected findings; good fixture -> clean."""

    def assert_findings(self, result, checker, lines):
        got = sorted((f.checker, f.line) for f in result.findings)
        want = sorted((checker, line) for line in lines)
        self.assertEqual(got, want,
                         "\n".join(f.format_text() for f in result.findings))

    def test_status_discipline_bad(self):
        res = scan(["status_discipline_bad.cc"],
                   checkers=["status-discipline"])
        self.assert_findings(res, "status-discipline", [10, 11])

    def test_status_discipline_good(self):
        res = scan(["status_discipline_good.cc"])
        self.assertEqual(res.findings, [])

    def test_raw_accumulate_bad(self):
        res = scan(["raw_accumulate_bad.cc"], checkers=["raw-accumulate"])
        self.assert_findings(res, "raw-accumulate", [10, 19, 26])

    def test_raw_accumulate_good(self):
        res = scan(["raw_accumulate_good.cc"])
        self.assertEqual(res.findings, [])

    def test_rng_stream_bad(self):
        res = scan(["rng_stream_bad.cc"], checkers=["rng-stream"])
        self.assert_findings(res, "rng-stream", [2, 10, 15, 20, 28, 36])

    def test_rng_stream_good(self):
        res = scan(["rng_stream_good.cc"])
        self.assertEqual(res.findings, [])

    def test_clock_discipline_bad(self):
        res = scan(["clock_discipline_bad.cc"],
                   checkers=["clock-discipline"])
        self.assert_findings(res, "clock-discipline", [8, 12, 17, 23])

    def test_clock_discipline_good(self):
        res = scan(["clock_discipline_good.cc"])
        self.assertEqual(res.findings, [])

    def test_clock_discipline_exempts_obs_layer(self):
        # The same raw reads are the sanctioned implementation when they
        # live in src/obs/ (and src/benchutil/): zero findings there.
        root = make_tree([])
        dest = root / "src" / "obs" / "clock_impl.cc"
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(FIXTURES / "clock_discipline_bad.cc", dest)
        try:
            res = engine.run_scan(root, checker_names=["clock-discipline"],
                                  backend="internal")
            self.assertEqual(res.findings, [])
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_simd_discipline_bad(self):
        res = scan(["simd_discipline_bad.cc"],
                   checkers=["simd-discipline"])
        self.assert_findings(res, "simd-discipline", [2, 3, 6, 7, 8, 10])

    def test_simd_discipline_good(self):
        res = scan(["simd_discipline_good.cc"])
        self.assertEqual(res.findings, [])

    def test_raw_accumulate_exemption_is_a_closed_list(self):
        # Same closed-list contract for raw-accumulate: a naive float
        # accumulation is exempt inside the blocked kernels but flagged in
        # any other file, including another src/common/ file.
        for rel, expect_clean in (("src/common/kernels.cc", True),
                                  ("src/common/rng.cc", False)):
            root = make_tree([])
            dest = root / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(FIXTURES / "raw_accumulate_bad.cc", dest)
            try:
                res = engine.run_scan(root,
                                      checker_names=["raw-accumulate"],
                                      backend="internal")
                if expect_clean:
                    self.assertEqual(res.findings, [], rel)
                else:
                    self.assertGreater(len(res.findings), 0, rel)
            finally:
                shutil.rmtree(root, ignore_errors=True)

    def test_lock_discipline_bad(self):
        res = scan(["lock_discipline_bad.cc"],
                   checkers=["lock-discipline"])
        # 15/21: raw lock holder + raw mutex in its template argument.
        self.assert_findings(res, "lock-discipline",
                             [15, 15, 21, 21, 27, 28, 40, 44])

    def test_lock_discipline_good(self):
        res = scan(["lock_discipline_good.cc"])
        self.assertEqual(res.findings, [])

    def test_lock_discipline_exempts_wrapper_header(self):
        # The same raw primitives ARE the sanctioned implementation inside
        # the wrapper header itself: zero findings there.
        root = make_tree([])
        dest = root / "src" / "common" / "mutex.h"
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(FIXTURES / "lock_discipline_bad.cc", dest)
        try:
            res = engine.run_scan(root, checker_names=["lock-discipline"],
                                  backend="internal")
            self.assertEqual(res.findings, [])
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_static_state_bad(self):
        res = scan(["static_state_bad.cc"], checkers=["static-state"])
        self.assert_findings(res, "static-state", [5, 10])

    def test_static_state_good(self):
        res = scan(["static_state_good.cc"])
        self.assertEqual(res.findings, [])

    def test_arena_escape_bad(self):
        # 18: return past own Scope; 24: same through the MakeBuf helper's
        # summary; 31: member store; 42: capture in a Submit lambda.
        res = scan(["arena_escape_bad.cc"], checkers=["arena-escape"])
        self.assert_findings(res, "arena-escape", [18, 24, 31, 42])

    def test_arena_escape_good(self):
        res = scan(["arena_escape_good.cc"])
        self.assertEqual(res.findings, [])

    def test_arena_escape_cross_file(self):
        # The allocation helper lives in src/core/, the escaping caller in
        # src/histogram/: the finding must land in the caller, carried by
        # the cross-TU returns_arena summary.
        res = scan(["arena_escape_cross_helper.cc",
                    "arena_escape_cross_user.cc"],
                   checkers=["arena-escape"])
        self.assertEqual(
            [(f.path, f.line) for f in res.findings],
            [("src/histogram/arena_escape_cross_user.cc", 13)],
            "\n".join(f.format_text() for f in res.findings))

    def test_view_escape_bad(self):
        # 16: container -> view conversion; 21: .data(); 27: via a local
        # view variable; 32: via CStr()'s views_params summary; 37: via a
        # string_view constructor.
        res = scan(["view_escape_bad.cc"], checkers=["view-escape"])
        self.assert_findings(res, "view-escape", [16, 21, 27, 32, 37])

    def test_view_escape_good(self):
        res = scan(["view_escape_good.cc"])
        self.assertEqual(res.findings, [])

    def test_obs_name_bad(self):
        # 7/8: literal first args to the metric entry points; 9: a
        # TraceSpan ctor literal; 10: a registry-namespace literal
        # smuggled through a local.
        res = scan(["obs_name_bad.cc"], checkers=["obs-name-discipline"])
        self.assert_findings(res, "obs-name-discipline", [7, 8, 9, 10])

    def test_obs_name_good(self):
        res = scan(["obs_name_good.cc"])
        self.assertEqual(res.findings, [])

    def test_obs_name_scoped_to_src(self):
        # bench-internal synthetic names are not part of the registry
        # contract: the same file outside src/ is clean.
        root = make_tree([])
        dest = root / "bench" / "obs_name_bad.cc"
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(FIXTURES / "obs_name_bad.cc", dest)
        try:
            res = engine.run_scan(root,
                                  checker_names=["obs-name-discipline"],
                                  backend="internal")
            self.assertEqual(res.findings, [])
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_obs_name_registry_header_exempt(self):
        # The registry header is where the literals are supposed to live.
        root = make_tree([])
        dest = root / "src" / "obs" / "names.h"
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(FIXTURES / "obs_name_bad.cc", dest)
        try:
            res = engine.run_scan(root,
                                  checker_names=["obs-name-discipline"],
                                  backend="internal")
            self.assertEqual(res.findings, [])
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_env_discipline_bad(self):
        res = scan(["env_discipline_bad.cc"], checkers=["env-discipline"])
        self.assert_findings(res, "env-discipline", [6, 14])

    def test_env_discipline_good(self):
        res = scan(["env_discipline_good.cc"])
        self.assertEqual(res.findings, [])

    def test_env_discipline_exempts_parser_impl(self):
        # The ParseEnv* implementation is the one sanctioned getenv site.
        root = make_tree([])
        dest = root / "src" / "common" / "cli.cc"
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(FIXTURES / "env_discipline_bad.cc", dest)
        try:
            res = engine.run_scan(root, checker_names=["env-discipline"],
                                  backend="internal")
            self.assertEqual(res.findings, [])
        finally:
            shutil.rmtree(root, ignore_errors=True)


class InterproceduralUpgradeTest(unittest.TestCase):
    """PR-4-era checkers seeing through one helper level via summaries."""

    def _scan_text(self, text, checkers):
        root = pathlib.Path(tempfile.mkdtemp())
        try:
            f = root / "src" / "core" / "t.cc"
            f.parent.mkdir(parents=True)
            f.write_text(text)
            return engine.run_scan(root, checker_names=checkers,
                                   backend="internal")
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_rng_helper_draw_in_parallel_lambda(self):
        res = self._scan_text(
            "#include \"common/rng.h\"\n"
            "namespace histest {\n"
            "double DrawOne(Rng& rng) { return rng.UniformDouble(); }\n"
            "void Run(Rng& rng, double* out, int64_t n) {\n"
            "  ParallelFor(n, 2, [&](int64_t i) {\n"
            "    out[i] = DrawOne(rng);\n"
            "  });\n"
            "}\n"
            "}\n", ["rng-stream"])
        self.assertEqual([(f.checker, f.line) for f in res.findings],
                         [("rng-stream", 6)],
                         "\n".join(f.format_text() for f in res.findings))

    def test_rng_helper_with_lambda_local_generator_clean(self):
        res = self._scan_text(
            "#include \"common/rng.h\"\n"
            "namespace histest {\n"
            "double DrawOne(Rng& rng) { return rng.UniformDouble(); }\n"
            "void Run(const uint64_t* seeds, double* out, int64_t n) {\n"
            "  ParallelFor(n, 2, [&](int64_t i) {\n"
            "    Rng task(seeds[i]);\n"
            "    out[i] = DrawOne(task);\n"
            "  });\n"
            "}\n"
            "}\n", ["rng-stream"])
        self.assertEqual(res.findings, [],
                         "\n".join(f.format_text() for f in res.findings))

    def test_auto_status_wrapper_discard_flagged(self):
        res = self._scan_text(
            "#include \"common/status.h\"\n"
            "namespace histest {\n"
            "Status DoThing() { return Status(); }\n"
            "auto Forward() { return DoThing(); }\n"
            "void Caller() {\n"
            "  Forward();\n"
            "}\n"
            "}\n", ["status-discipline"])
        self.assertEqual([(f.checker, f.line) for f in res.findings],
                         [("status-discipline", 6)],
                         "\n".join(f.format_text() for f in res.findings))

    def test_auto_nonstatus_wrapper_discard_clean(self):
        res = self._scan_text(
            "namespace histest {\n"
            "int Compute() { return 3; }\n"
            "auto Forward() { return Compute(); }\n"
            "void Caller() {\n"
            "  Forward();\n"
            "}\n"
            "}\n", ["status-discipline"])
        self.assertEqual(res.findings, [])

    def test_overload_union_status_ambiguity_is_silent(self):
        # Two definitions share the bare name: one returns Status, one is
        # void. The summary must answer "ambiguous" (no finding), same
        # contract as SymbolIndex._ambiguous.
        res = self._scan_text(
            "#include \"common/status.h\"\n"
            "namespace histest {\n"
            "Status Build(int x) { return Status(); }\n"
            "struct S { void Build(); };\n"
            "void S::Build() { }\n"
            "void Caller(S& s) {\n"
            "  s.Build();\n"
            "}\n"
            "}\n", ["status-discipline"])
        self.assertEqual(res.findings, [],
                         "\n".join(f.format_text() for f in res.findings))


class SuppressionTest(unittest.TestCase):
    def test_reasoned_inline_suppression_honored(self):
        res = scan(["suppression_ok.cc"])
        self.assertEqual(res.findings, [])

    def test_missing_reason_is_a_finding_and_does_not_suppress(self):
        res = scan(["suppression_missing_reason.cc"])
        checkers = sorted(f.checker for f in res.findings)
        self.assertEqual(checkers, ["bad-suppression", "raw-accumulate"])

    def test_allowlist_suppresses_whole_file(self):
        res = scan(["raw_accumulate_bad.cc"],
                   checkers=["raw-accumulate"],
                   allowlist="raw-accumulate src/core/raw_accumulate_bad.cc"
                             " -- fixture exemption\n")
        self.assertEqual(res.findings, [])

    def test_allowlist_entry_without_reason_is_rejected(self):
        with self.assertRaises(ValueError):
            scan(["raw_accumulate_bad.cc"],
                 allowlist="raw-accumulate src/core/raw_accumulate_bad.cc\n")


class StaleSuppressionTest(unittest.TestCase):
    """Suppressions that no longer suppress anything are findings."""

    def _tree_with(self, text, allowlist=None):
        root = pathlib.Path(tempfile.mkdtemp())
        f = root / "src" / "core" / "t.cc"
        f.parent.mkdir(parents=True)
        f.write_text(text)
        if allowlist is not None:
            cfg = root / "tools" / "analyzer"
            cfg.mkdir(parents=True)
            (cfg / "allowlist.txt").write_text(allowlist)
        return root

    _CLEAN_WITH_SUPPRESSION = (
        "// analyzer-allow(raw-accumulate): left over from a refactor\n"
        "double Get(const double* v) {\n"
        "  return v[0];\n"
        "}\n")

    def test_stale_inline_suppression_is_a_warning(self):
        root = self._tree_with(self._CLEAN_WITH_SUPPRESSION)
        try:
            res = engine.run_scan(root, backend="internal")
            self.assertEqual(
                [(f.checker, f.line, f.severity) for f in res.findings],
                [("stale-suppression", 1, "warning")])
            self.assertEqual(res.errors, [])  # exit stays 0
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_stale_inline_suppression_strict_is_an_error(self):
        root = self._tree_with(self._CLEAN_WITH_SUPPRESSION)
        try:
            res = engine.run_scan(root, backend="internal",
                                  strict_suppressions=True)
            self.assertEqual(
                [(f.checker, f.severity) for f in res.findings],
                [("stale-suppression", "error")])
            self.assertEqual(len(res.errors), 1)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_used_suppression_is_not_stale(self):
        root = self._tree_with(
            "double S(const double* v, int n) {\n"
            "  double t = 0.0;\n"
            "  for (int i = 0; i < n; ++i) {\n"
            "    // analyzer-allow(raw-accumulate): fixture kernel\n"
            "    t += v[i];\n"
            "  }\n"
            "  return t;\n"
            "}\n")
        try:
            res = engine.run_scan(root, backend="internal")
            self.assertEqual(res.findings, [])
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_suppression_for_inactive_checker_not_judged(self):
        # Scanning with a checker subset must not call suppressions for
        # the *other* checkers stale.
        root = self._tree_with(self._CLEAN_WITH_SUPPRESSION)
        try:
            res = engine.run_scan(root, checker_names=["status-discipline"],
                                  backend="internal")
            self.assertEqual(res.findings, [])
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_stale_allowlist_entry_reported_on_full_scan(self):
        root = self._tree_with(
            "double Get(const double* v) { return v[0]; }\n",
            allowlist="raw-accumulate src/core/deleted_file.cc"
                      " -- file was removed\n")
        try:
            res = engine.run_scan(root, backend="internal")
            self.assertEqual(
                [(f.checker, f.path, f.severity) for f in res.findings],
                [("stale-suppression", "tools/analyzer/allowlist.txt",
                  "warning")])
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_cli_strict_suppressions_exits_one(self):
        root = self._tree_with(self._CLEAN_WITH_SUPPRESSION)
        try:
            ok = run_cli(["--root", str(root), "--backend", "internal"])
            self.assertEqual(ok.returncode, 0, ok.stdout + ok.stderr)
            strict = run_cli(["--root", str(root), "--backend", "internal",
                              "--strict-suppressions"])
            self.assertEqual(strict.returncode, 1,
                             strict.stdout + strict.stderr)
        finally:
            shutil.rmtree(root, ignore_errors=True)


class CliOutputTest(unittest.TestCase):
    def test_json_schema_and_exit_code(self):
        root = make_tree(["raw_accumulate_bad.cc", "status_discipline_bad.cc"])
        try:
            proc = run_cli(["--root", str(root), "--backend", "internal",
                            "--format", "json"])
            self.assertEqual(proc.returncode, 1, proc.stderr)
            doc = json.loads(proc.stdout)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        self.assertEqual(doc["tool"], "histest-analyzer")
        self.assertEqual(doc["backend"], "internal")
        self.assertIsInstance(doc["version"], str)
        self.assertIsInstance(doc["files_scanned"], int)
        self.assertIsInstance(doc["checkers"], list)
        self.assertGreater(len(doc["findings"]), 0)
        for f in doc["findings"]:
            self.assertEqual(
                sorted(f), ["checker", "col", "line", "message", "path",
                            "severity", "snippet"])
        self.assertEqual(sum(doc["counts"].values()), len(doc["findings"]))

    def test_sarif_structure(self):
        root = make_tree(["raw_accumulate_bad.cc"])
        try:
            proc = run_cli(["--root", str(root), "--backend", "internal",
                            "--format", "sarif"])
            self.assertEqual(proc.returncode, 1, proc.stderr)
            doc = json.loads(proc.stdout)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        self.assertEqual(doc["version"], "2.1.0")
        run = doc["runs"][0]
        self.assertEqual(run["tool"]["driver"]["name"], "histest-analyzer")
        self.assertGreater(len(run["results"]), 0)
        loc = run["results"][0]["locations"][0]["physicalLocation"]
        self.assertTrue(loc["artifactLocation"]["uri"].endswith(".cc"))

    def test_clean_tree_exits_zero(self):
        root = make_tree(["raw_accumulate_good.cc", "status_discipline_good.cc"])
        try:
            proc = run_cli(["--root", str(root), "--backend", "internal"])
            self.assertEqual(proc.returncode, 0,
                             proc.stdout + proc.stderr)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_unknown_checker_exits_two(self):
        proc = run_cli(["--backend", "internal", "--checkers", "nope"])
        self.assertEqual(proc.returncode, 2)

    def test_seeded_violation_fails_scan(self):
        # The CI smoke test's contract: a seeded violation must flip the
        # analyzer to exit 1 (the job would fail).
        proc = run_cli(["--backend", "internal", "--all-scopes",
                        str(FIXTURES / "raw_accumulate_bad.cc")])
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)


class RepoCleanTest(unittest.TestCase):
    def test_repository_scan_is_clean(self):
        proc = run_cli(["--root", str(REPO_ROOT), "--backend", "internal"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
