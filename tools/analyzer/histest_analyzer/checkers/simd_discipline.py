"""simd-discipline: no raw vendor intrinsics anywhere in the library.

The library has no ISA-specific translation unit: every file builds for the
portable baseline, with no per-file ISA flags and no runtime CPU dispatch.
An ``_mm256_add_pd`` would need a global ``-mavx2`` (miscompiling the
portable baseline into illegal-instruction territory on older CPUs) or a
CPUID-dispatched twin, and no test would compare it against a portable
version.

Flagged constructs:

* vendor intrinsic headers (``immintrin.h``, ``arm_neon.h``, ...) — every
  Arm intrinsic needs one, so the header ban covers Arm code;
* ``_mm``/``_mm256``/``_mm512``-prefixed intrinsic calls and the
  ``__m128/__m256/__m512`` vector types, which x86 toolchains also reach
  through transitive includes.

Portable idioms (``__builtin_prefetch``, autovectorizable loops) are not
SIMD and are fine anywhere.
"""

from __future__ import annotations

import re

from ..engine import Checker, Finding, register

_SIMD_HEADERS = frozenset({
    "immintrin.h", "x86intrin.h", "xmmintrin.h", "emmintrin.h",
    "pmmintrin.h", "tmmintrin.h", "smmintrin.h", "nmmintrin.h",
    "wmmintrin.h", "avxintrin.h", "avx2intrin.h", "avx512fintrin.h",
    "arm_neon.h", "arm_sve.h", "arm_acle.h",
})

_X86_INTRIN_RE = re.compile(r"^_mm(?:256|512)?_\w+$")
_X86_TYPE_RE = re.compile(r"^__m(?:128|256|512)[di]?$")


@register
class SimdDisciplineChecker(Checker):
    name = "simd-discipline"
    description = "raw SIMD intrinsics are banned in the library"
    scopes = None
    exempt = ()

    def check(self, ctx):
        out = []
        for pp in ctx.lexed.pp_lines:
            m = re.match(r'#\s*include\s*[<"]([^>"]+)[>"]', pp.text)
            if m and m.group(1) in _SIMD_HEADERS:
                out.append(Finding(
                    self.name, ctx.rel_path, pp.line, 1,
                    f"vendor intrinsic header <{m.group(1)}> is banned: "
                    f"the library has no ISA-specific translation unit, "
                    f"so every file builds for the portable baseline",
                    ctx.line_text(pp.line)))
        for t in ctx.model.tokens:
            if t.kind == "id" and (_X86_INTRIN_RE.match(t.text) or
                                   _X86_TYPE_RE.match(t.text)):
                out.append(self._finding(ctx, t))
        return out

    def _finding(self, ctx, t):
        return Finding(
            self.name, ctx.rel_path, t.line, t.col,
            f"raw SIMD intrinsic '{t.text}' is banned: the library has no "
            f"ISA-specific translation unit; write the portable loop (the "
            f"reductions in common/kernels.cc and the alias resolve in "
            f"dist/sampler.cc show how)",
            ctx.line_text(t.line))
