#!/usr/bin/env python3
"""Fixture tests for histest-analyzer, run by ctest.

Each checker gets a bad fixture (known findings at known lines) and a good
fixture (zero findings); suppression handling, the CLI's exit codes and a
seeded violation per checker are asserted on top. Fixtures are copied into
a temporary repo-shaped tree because checker scopes are path-based.
"""

from __future__ import annotations

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
    "raw_accumulate_bad.cc": "src/core/raw_accumulate_bad.cc",
    "raw_accumulate_good.cc": "src/core/raw_accumulate_good.cc",
    "rng_stream_bad.cc": "src/core/rng_stream_bad.cc",
    "rng_stream_good.cc": "src/core/rng_stream_good.cc",
    # simd-discipline scans every dir; src/dist/ placement proves the ban
    # reaches the sampler's hot path.
    "simd_discipline_bad.cc": "src/dist/simd_discipline_bad.cc",
    "simd_discipline_good.cc": "src/dist/simd_discipline_good.cc",
    # raw-lock scans every dir; src/benchutil/ placement mirrors the
    # thread-pool layer where the wrappers were first adopted.
    "raw_lock_bad.cc": "src/benchutil/raw_lock_bad.cc",
    "raw_lock_good.cc": "src/benchutil/raw_lock_good.cc",
    "static_state_bad.cc": "src/core/static_state_bad.cc",
    "static_state_good.cc": "src/core/static_state_good.cc",
    # obs-name-discipline is scoped to src/.
    "obs_name_bad.cc": "src/core/obs_name_bad.cc",
    "obs_name_good.cc": "src/core/obs_name_good.cc",
    "env_discipline_bad.cc": "src/app/env_discipline_bad.cc",
    "env_discipline_good.cc": "src/app/env_discipline_good.cc",
    "suppression_ok.cc": "src/core/suppression_ok.cc",
    "suppression_missing_reason.cc": "src/core/suppression_missing_reason.cc",
}

# checker -> (bad fixture, finding lines, good fixture).
FIXTURE_CASES = {
    "raw-accumulate": ("raw_accumulate_bad.cc", [10, 19, 26],
                       "raw_accumulate_good.cc"),
    "rng-stream": ("rng_stream_bad.cc", [2, 10, 15, 20, 28, 36],
                   "rng_stream_good.cc"),
    "static-state": ("static_state_bad.cc", [5, 10], "static_state_good.cc"),
    # Banned-token rows.
    "simd-discipline": ("simd_discipline_bad.cc", [2, 3, 6, 7, 8, 10],
                        "simd_discipline_good.cc"),
    "clock-discipline": ("clock_discipline_bad.cc", [8, 12, 17, 23],
                         "clock_discipline_good.cc"),
    "env-discipline": ("env_discipline_bad.cc", [6, 14],
                       "env_discipline_good.cc"),
    # 7/8: literal first args to the metric entry points; 9: a TraceSpan
    # ctor literal; 10: a registry-namespace literal smuggled through a
    # local.
    "obs-name-discipline": ("obs_name_bad.cc", [7, 8, 9, 10],
                            "obs_name_good.cc"),
    # 10/16: a raw lock holder plus the raw mutex in its template argument.
    "raw-lock": ("raw_lock_bad.cc", [10, 10, 16, 16, 22, 23],
                 "raw_lock_good.cc"),
}

# (checker, fixture, path it is placed at, expected to be clean there):
# the sanctioned implementation sites and the scope limits.
PLACEMENT_CASES = [
    ("clock-discipline", "clock_discipline_bad.cc", "src/obs/clock_impl.cc",
     True),
    ("clock-discipline", "clock_discipline_bad.cc",
     "src/benchutil/timing.cc", True),
    ("env-discipline", "env_discipline_bad.cc", "src/common/cli.cc", True),
    ("raw-lock", "raw_lock_bad.cc", "src/common/mutex.h", True),
    ("obs-name-discipline", "obs_name_bad.cc", "src/obs/names.h", True),
    # bench-internal synthetic names are not part of the registry contract.
    ("obs-name-discipline", "obs_name_bad.cc", "bench/obs_name_bad.cc",
     True),
    # raw-accumulate's exemption is a closed list: the blocked kernels are
    # exempt, another src/common/ file is not.
    ("raw-accumulate", "raw_accumulate_bad.cc", "src/common/kernels.cc",
     True),
    ("raw-accumulate", "raw_accumulate_bad.cc", "src/common/rng.cc", False),
]

# One seeded violation per checker, at an in-scope path; each must fail a
# scan of an otherwise empty tree and be attributed to its checker.
SEEDS = {
    "raw-accumulate": ("src/core/seeded_sum.cc", """\
double Sum(const double* v, int n) {
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += v[i];
  }
  return total;
}
"""),
    "rng-stream": ("src/core/seeded_rng.cc", """\
#include <random>
unsigned Draw() { std::mt19937 gen(1); return gen(); }
"""),
    "static-state": ("src/stats/seeded_static.cc", """\
int Calls() { static int calls = 0; return ++calls; }
"""),
    "simd-discipline": ("src/dist/seeded_simd.cc", """\
#include <immintrin.h>
"""),
    "clock-discipline": ("bench/seeded_clock.cc", """\
#include <chrono>
long Now() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
"""),
    "env-discipline": ("src/app/seeded_env.cc", """\
#include <cstdlib>
const char* Home() { return std::getenv("HOME"); }
"""),
    "obs-name-discipline": ("src/core/seeded_obs.cc", """\
#include "obs/metrics.h"
namespace histest {
void Touch() { obs::AddCount("histest.seeded.calls", 1); }
}  // namespace histest
"""),
    "raw-lock": ("src/benchutil/seeded_lock.cc", """\
#include <mutex>
std::mutex g_mu;
"""),
}


def make_tree(files=(), sources=None):
    """A fresh temp tree holding fixtures (at their DEST, or at an explicit
    (fixture, path) pair) and literal sources {path: text}."""
    root = pathlib.Path(tempfile.mkdtemp(prefix="histest-analyzer-test-"))
    for item in files:
        name, rel = item if isinstance(item, tuple) else (item, DEST[item])
        dest = root / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(FIXTURES / name, dest)
    for rel, text in (sources or {}).items():
        dest = root / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(text)
    return root


def scan(files=(), sources=None, checkers=None, **kwargs):
    root = make_tree(files, sources)
    try:
        return engine.run_scan(root, checker_names=checkers, **kwargs)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_cli(args):
    return subprocess.run([sys.executable, str(ANALYZER_BIN), *args],
                          capture_output=True, text=True, cwd=REPO_ROOT)


def dump(result):
    return "\n".join(f.format_text() for f in result.findings)


class CheckerFixtureTest(unittest.TestCase):
    """Bad fixture -> expected findings; good fixture -> clean."""

    def test_every_checker_has_fixtures(self):
        self.assertEqual(set(FIXTURE_CASES), set(engine.registry()))

    def test_bad_fixtures(self):
        for checker, (bad, lines, _) in FIXTURE_CASES.items():
            with self.subTest(checker=checker):
                res = scan([bad], checkers=[checker])
                self.assertEqual(
                    sorted((f.checker, f.line) for f in res.findings),
                    sorted((checker, line) for line in lines), dump(res))

    def test_bad_fixtures_fail_a_full_scan(self):
        # With every checker active, each bad fixture still fails and is
        # attributed to its own checker.
        for checker, (bad, _, _) in FIXTURE_CASES.items():
            with self.subTest(checker=checker):
                res = scan([bad])
                self.assertIn(checker, {f.checker for f in res.errors},
                              dump(res))

    def test_good_fixtures_are_clean(self):
        for checker, (_, _, good) in FIXTURE_CASES.items():
            with self.subTest(checker=checker):
                res = scan([good])
                self.assertEqual(res.findings, [], dump(res))

    def test_scopes_and_sanctioned_sites(self):
        for checker, fixture, rel, clean in PLACEMENT_CASES:
            with self.subTest(checker=checker, path=rel):
                res = scan([(fixture, rel)], checkers=[checker])
                if clean:
                    self.assertEqual(res.findings, [], dump(res))
                else:
                    self.assertGreater(len(res.findings), 0, rel)


class RngSummaryTest(unittest.TestCase):
    """rng-stream sees through one helper level via the Rng-draw
    summaries."""

    def _scan(self, text):
        return scan(sources={"src/core/t.cc": text},
                    checkers=["rng-stream"])

    def test_rng_helper_draw_in_parallel_lambda(self):
        res = self._scan(
            "#include \"common/rng.h\"\n"
            "namespace histest {\n"
            "double DrawOne(Rng& rng) { return rng.UniformDouble(); }\n"
            "void Run(Rng& rng, double* out, int64_t n) {\n"
            "  ParallelFor(n, 2, [&](int64_t i) {\n"
            "    out[i] = DrawOne(rng);\n"
            "  });\n"
            "}\n"
            "}\n")
        self.assertEqual([(f.checker, f.line) for f in res.findings],
                         [("rng-stream", 6)], dump(res))

    def test_rng_helper_with_lambda_local_generator_clean(self):
        res = self._scan(
            "#include \"common/rng.h\"\n"
            "namespace histest {\n"
            "double DrawOne(Rng& rng) { return rng.UniformDouble(); }\n"
            "void Run(const uint64_t* seeds, double* out, int64_t n) {\n"
            "  ParallelFor(n, 2, [&](int64_t i) {\n"
            "    Rng task(seeds[i]);\n"
            "    out[i] = DrawOne(task);\n"
            "  });\n"
            "}\n"
            "}\n")
        self.assertEqual(res.findings, [], dump(res))


class SuppressionTest(unittest.TestCase):
    def test_reasoned_inline_suppression_honored(self):
        res = scan(["suppression_ok.cc"])
        self.assertEqual(res.findings, [])

    def test_missing_reason_is_a_finding_and_does_not_suppress(self):
        res = scan(["suppression_missing_reason.cc"])
        checkers = sorted(f.checker for f in res.findings)
        self.assertEqual(checkers, ["bad-suppression", "raw-accumulate"])


class StaleSuppressionTest(unittest.TestCase):
    """Suppressions that no longer suppress anything are findings."""

    _CLEAN_WITH_SUPPRESSION = {"src/core/t.cc": (
        "// analyzer-allow(raw-accumulate): left over from a refactor\n"
        "double Get(const double* v) {\n"
        "  return v[0];\n"
        "}\n")}

    def test_stale_inline_suppression_is_a_warning(self):
        res = scan(sources=self._CLEAN_WITH_SUPPRESSION)
        self.assertEqual(
            [(f.checker, f.line, f.severity) for f in res.findings],
            [("stale-suppression", 1, "warning")])
        self.assertEqual(res.errors, [])  # exit stays 0

    def test_stale_inline_suppression_strict_is_an_error(self):
        res = scan(sources=self._CLEAN_WITH_SUPPRESSION,
                   strict_suppressions=True)
        self.assertEqual([(f.checker, f.severity) for f in res.findings],
                         [("stale-suppression", "error")])
        self.assertEqual(len(res.errors), 1)

    def test_used_suppression_is_not_stale(self):
        res = scan(sources={"src/core/t.cc": (
            "double S(const double* v, int n) {\n"
            "  double t = 0.0;\n"
            "  for (int i = 0; i < n; ++i) {\n"
            "    // analyzer-allow(raw-accumulate): fixture kernel\n"
            "    t += v[i];\n"
            "  }\n"
            "  return t;\n"
            "}\n")})
        self.assertEqual(res.findings, [])

    def test_suppression_for_inactive_checker_not_judged(self):
        # Scanning with a checker subset must not call suppressions for
        # the *other* checkers stale.
        res = scan(sources=self._CLEAN_WITH_SUPPRESSION,
                   checkers=["static-state"])
        self.assertEqual(res.findings, [])

    def test_cli_strict_suppressions_exits_one(self):
        root = make_tree(sources=self._CLEAN_WITH_SUPPRESSION)
        try:
            ok = run_cli(["--root", str(root)])
            self.assertEqual(ok.returncode, 0, ok.stdout + ok.stderr)
            strict = run_cli(["--root", str(root), "--strict-suppressions"])
            self.assertEqual(strict.returncode, 1,
                             strict.stdout + strict.stderr)
        finally:
            shutil.rmtree(root, ignore_errors=True)


class CliTest(unittest.TestCase):
    def test_clean_tree_exits_zero(self):
        root = make_tree(["raw_accumulate_good.cc", "rng_stream_good.cc"])
        try:
            proc = run_cli(["--root", str(root)])
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_unknown_checker_exits_two(self):
        proc = run_cli(["--checkers", "nope"])
        self.assertEqual(proc.returncode, 2)

    def test_seeded_violation_fails_scan(self):
        # The gate's contract: a seeded violation of any checker flips the
        # analyzer to exit 1, attributed to that checker.
        self.assertEqual(set(SEEDS), set(engine.registry()))
        for checker, (rel, text) in SEEDS.items():
            with self.subTest(checker=checker):
                root = make_tree(sources={rel: text})
                try:
                    proc = run_cli(["--root", str(root)])
                finally:
                    shutil.rmtree(root, ignore_errors=True)
                self.assertEqual(proc.returncode, 1,
                                 proc.stdout + proc.stderr)
                self.assertIn(f"{rel}:", proc.stdout)
                self.assertIn(f"[{checker}]", proc.stdout)


class RepoCleanTest(unittest.TestCase):
    def test_repository_scan_is_clean(self):
        proc = run_cli(["--root", str(REPO_ROOT), "--strict-suppressions"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
