"""Banned-token rows: constructs that must not appear outside the one place
that implements them. One table, one matcher; each row registers as its
own checker id, with its own scope, exemptions and message.

  simd-discipline      vendor intrinsic headers, ``_mm*`` intrinsics and
                       ``__m128/256/512`` types, anywhere. The library has
                       no ISA-specific translation unit and no CPU dispatch.
  clock-discipline     ``std::chrono::*_clock::now()``, libc ``clock()``,
                       ``clock_gettime``/``gettimeofday``/``timespec_get``,
                       outside src/obs/ and src/benchutil/. Timing reads an
                       injected ``obs::Clock`` or an ``obs::TraceSpan``, so a
                       ``FakeClock`` makes traced runs reproducible and
                       timing cannot leak into verdict paths.
  env-discipline       raw ``getenv`` outside src/common/cli.cc, the
                       ``ParseEnv*`` implementation.
  obs-name-discipline  in src/, a string literal as the first argument of
                       ``AddCount``/``SetGauge``/``TraceSpan``, or any
                       literal spelled like a registry name
                       (``histest.*``/``stage.*``): names come from the
                       src/obs/names.h registry that the trace tooling reads.
  raw-lock             ``std::mutex``, ``std::condition_variable`` and the
                       raw lock holders outside src/common/mutex.h. Only the
                       annotated wrappers carry the capability attributes
                       that Clang's -Wthread-safety checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..engine import Checker, Finding, register

_INCLUDE_RE = re.compile(r'#\s*include\s*[<"]([^>"]+)[>"]')
_CHRONO_CLOCKS = frozenset({"steady_clock", "system_clock",
                            "high_resolution_clock"})


@dataclass(frozen=True)
class Row:
    name: str
    description: str
    message: str                       # follows "<construct>: "
    scopes: tuple | None = None        # repo-relative prefixes; None = all
    exempt: tuple = ()                 # path globs of the sanctioned sites
    headers: frozenset = frozenset()   # banned #include targets
    ids: re.Pattern | None = None      # any identifier matching
    std_ids: frozenset = frozenset()   # std::<id>
    calls: frozenset = frozenset()     # free calls f(...), not x.f(...)
    no_arg_calls: frozenset = frozenset()  # unqualified free calls f()
    chrono_now: bool = False           # <chrono clock>::now()
    literal_arg: frozenset = frozenset()   # f("...") or T name("...")
    literals: re.Pattern | None = None  # string literals matching


ROWS = (
    Row("simd-discipline",
        "raw SIMD intrinsics are banned in the library",
        "raw SIMD intrinsics are banned; the library has no ISA-specific "
        "translation unit, so every file builds for the portable baseline. "
        "Write the portable loop (the reductions in common/kernels.cc and "
        "the alias resolve in dist/sampler.cc show how)",
        headers=frozenset({
            "immintrin.h", "x86intrin.h", "xmmintrin.h", "emmintrin.h",
            "pmmintrin.h", "tmmintrin.h", "smmintrin.h", "nmmintrin.h",
            "wmmintrin.h", "avxintrin.h", "avx2intrin.h", "avx512fintrin.h",
            "arm_neon.h", "arm_sve.h", "arm_acle.h"}),
        ids=re.compile(r"_mm(?:256|512)?_\w+|__m(?:128|256|512)[di]?")),
    Row("clock-discipline",
        "timing must go through obs::Clock / obs::TraceSpan; raw clock "
        "reads are banned outside src/obs and src/benchutil",
        "raw clock reads are banned; read an injected obs::Clock "
        "(src/obs/clock.h) or time it with an obs::TraceSpan so traced runs "
        "stay reproducible and disabled-mode builds read no clock",
        exempt=("src/obs/*", "src/benchutil/*"),
        calls=frozenset({"clock_gettime", "gettimeofday", "timespec_get"}),
        no_arg_calls=frozenset({"clock"}),
        chrono_now=True),
    Row("env-discipline",
        "raw getenv is banned; use ParseEnv* from common/cli.h",
        "raw environment reads bypass the shared env parsing and "
        "diagnostics; use ParseEnvInt/ParseEnvDouble/ParseEnvFlag from "
        "common/cli.h (sole sanctioned call site: src/common/cli.cc)",
        exempt=("src/common/cli.cc",),
        calls=frozenset({"getenv", "secure_getenv", "_wgetenv"})),
    Row("obs-name-discipline",
        "metric/span name literals must come from the src/obs/names.h "
        "registry",
        "metric and span names come from src/obs/names.h "
        "(histest::obs::names), so histest-trace and trace_gate.py can "
        "validate them",
        scopes=("src/",),
        exempt=("src/obs/names.h",),
        literal_arg=frozenset({"AddCount", "SetGauge", "TraceSpan"}),
        literals=re.compile(r'"(?:histest|stage)\.[A-Za-z0-9_.]+"')),
    Row("raw-lock",
        "raw std::mutex/condition_variable/lock holders are banned outside "
        "src/common/mutex.h",
        "raw std lock types are banned outside src/common/mutex.h; use the "
        "capability-annotated wrappers (histest::Mutex/SharedMutex/"
        "MutexLock/CondVar) so Clang thread-safety analysis can check the "
        "lock contract",
        exempt=("src/common/mutex.h", "src/common/thread_annotations.h"),
        std_ids=frozenset({
            "mutex", "timed_mutex", "recursive_mutex",
            "recursive_timed_mutex", "shared_mutex", "shared_timed_mutex",
            "condition_variable", "condition_variable_any", "lock_guard",
            "unique_lock", "shared_lock", "scoped_lock"})),
)


def _matches(row, ctx):
    """Yields (line, col, construct) for every banned construct."""
    for pp in ctx.lexed.pp_lines:
        m = _INCLUDE_RE.match(pp.text)
        if m and m.group(1) in row.headers:
            yield pp.line, 1, f"#include <{m.group(1)}>"
    toks = ctx.model.tokens
    for i, t in enumerate(toks):
        prev = toks[i - 1].text if i > 0 else ""
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        if t.kind == "str":
            if row.literals is not None and row.literals.fullmatch(t.text):
                yield t.line, t.col, f"literal {t.text}"
            continue
        if t.kind != "id":
            continue
        if row.ids is not None and row.ids.fullmatch(t.text):
            yield t.line, t.col, f"'{t.text}'"
        if t.text == "std" and nxt == "::" and i + 2 < len(toks) and \
                toks[i + 2].text in row.std_ids:
            yield t.line, t.col, f"std::{toks[i + 2].text}"
        if nxt != "(":
            continue
        if t.text in row.calls and prev not in (".", "->"):
            yield t.line, t.col, f"{t.text}()"
        if t.text in row.no_arg_calls and prev not in (".", "->", "::") \
                and ctx.model.match.get(i + 1) == i + 2:
            yield t.line, t.col, f"{t.text}()"
        if row.chrono_now and t.text == "now" and prev == "::":
            back = {x.text for x in toks[max(0, i - 8):i]}
            if "chrono" in back or back & _CHRONO_CLOCKS:
                yield t.line, t.col, "std::chrono clock now()"
        callee = t.text if t.text in row.literal_arg else prev
        if callee in row.literal_arg and i + 2 < len(toks) and \
                toks[i + 2].kind == "str":
            lit = toks[i + 2]
            yield lit.line, lit.col, f"string literal passed to {callee}()"


class BannedToken(Checker):
    def __init__(self, row: Row):
        self.row = row
        self.name = row.name
        self.description = row.description
        self.scopes = row.scopes
        self.exempt = row.exempt

    def check(self, ctx):
        out, seen = [], set()
        for line, col, what in _matches(self.row, ctx):
            if (line, col) not in seen:
                seen.add((line, col))
                out.append(Finding(self.name, ctx.rel_path, line, col,
                                   f"{what}: {self.row.message}",
                                   ctx.line_text(line)))
        return out


for _row in ROWS:
    register(BannedToken(_row))
