"""raw-accumulate: floating-point accumulation in hot paths must go
through the blocked kernels (common/kernels.h) or compensated summation
(common/math_util.h).

Naive `sum += x` loops and std::accumulate/std::reduce drift with length
and evaluation order; the statistics kernels' bit-exactness contract
(dense == sparse, serial == parallel) requires the shared implementations.
This is the AST-level successor of the regex raw-accumulate lint: it sees
through formatting, comments, and multi-line statements, and it only fires
on accumulation into floating-point lvalues inside loops.
"""

from __future__ import annotations

from ..engine import Checker, Finding, register
from ._shared import statement_spans


@register
class RawAccumulateChecker(Checker):
    name = "raw-accumulate"
    description = ("float accumulation in loops must use kernels.h "
                   "reductions or KahanSum (math_util.h)")
    # The hot statistics paths; matches the scope of the regex lint it
    # replaces.
    scopes = ("src/stats/", "src/core/", "src/histogram/", "src/common/",
              "src/dist/")
    # The approved implementations themselves: the blocked kernels and the
    # compensated-summation primitives.
    exempt = ("src/common/kernels.h", "src/common/kernels.cc",
              "src/common/math_util.h", "src/common/math_util.cc")

    def check(self, ctx):
        return self._std_accumulate(ctx) + self._internal_loops(ctx)

    def _std_accumulate(self, ctx):
        """`std::accumulate` / `std::reduce` anywhere in scope (these are
        order-dependent regardless of loop nesting)."""
        toks = ctx.model.tokens
        out = []
        for i in range(len(toks) - 2):
            if toks[i].kind == "id" and toks[i].text == "std" and \
                    toks[i + 1].text == "::" and \
                    toks[i + 2].kind == "id" and \
                    toks[i + 2].text in ("accumulate", "reduce"):
                t = toks[i + 2]
                out.append(Finding(
                    self.name, ctx.rel_path, t.line, t.col,
                    f"std::{t.text} over floats is order-dependent; use "
                    f"SumKernel/KahanSum (common/kernels.h, math_util.h)",
                    ctx.line_text(t.line)))
        return out

    def _internal_loops(self, ctx):
        toks = ctx.model.tokens
        out = []
        for fn, st in statement_spans(ctx):
            if st.loop_depth <= 0:
                continue
            i = st.start
            if i >= st.end or toks[i].kind != "id":
                continue
            lhs = toks[i].text
            j = i + 1
            # `arr[i] += x` on a float array.
            cls = fn.type_of(lhs, ctx.index, ctx.model.member_types)
            if cls == "float_ptr" and j < st.end and \
                    toks[j].text == "[":
                close = ctx.model.match.get(j)
                if close is not None and close + 1 < st.end:
                    j = close + 1
                    cls = "float"
            if j >= st.end or toks[j].kind != "punct" or \
                    toks[j].text not in ("+=", "-="):
                continue
            if cls == "float":
                out.append(self._finding(ctx, toks[i].line, toks[i].col,
                                         lhs))
        return out

    def _finding(self, ctx, line, col, lhs):
        return Finding(
            self.name, ctx.rel_path, line, col,
            f"naive floating-point accumulation into '{lhs}' inside a "
            f"loop; use the blocked kernels (common/kernels.h) or "
            f"KahanSum (common/math_util.h)",
            ctx.line_text(line))
