"""rng-stream: all randomness flows through histest::Rng on a
schedule-independent stream.

Four families of violation:

  1. raw `<random>` engines/adaptors, rand()/srand()/random_shuffle —
     implementation-defined streams, not reproducible across standard
     libraries (anywhere outside common/rng.*);
  2. wall-clock / process entropy as seed material (library code);
  3. draws from a *shared* Rng inside a lambda handed to the parallel
     harness (ParallelFor / ThreadPool::Run, see PARALLEL_ENTRY_POINTS):
     the interleaving of draws then depends on the schedule, so results
     differ run to run.
     Fork() on a shared generator inside such a lambda is equally broken —
     the parent stream advances in completion order;
  4. draws guarded by thread-topology state (num_threads, HISTEST_THREADS,
     hardware_concurrency, ...): the stream consumed then depends on how
     many workers the host has.

This checker subsumes the raw-rng and time-seed rules of the retired
regex lint.
"""

from __future__ import annotations

from ..engine import Checker, Finding, register
from ..model import RNG_DRAW_METHODS
from ..summaries import iter_calls, split_call_args
from ._shared import statement_spans

_STD_RNG_IDS = frozenset({
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "random_device", "knuth_b",
    "ranlux24", "ranlux48", "ranlux24_base", "ranlux48_base",
    "uniform_int_distribution", "uniform_real_distribution",
    "normal_distribution", "bernoulli_distribution",
    "binomial_distribution", "poisson_distribution",
    "exponential_distribution", "gamma_distribution",
    "discrete_distribution", "random_shuffle",
})

_CLOCK_IDS = frozenset({"steady_clock", "system_clock",
                        "high_resolution_clock"})

_RNG_IMPL_FILES = ("src/common/rng.h", "src/common/rng.cc")


@register
class RngStreamChecker(Checker):
    name = "rng-stream"
    description = ("randomness must flow through histest::Rng on a "
                   "schedule-independent stream")
    scopes = None

    def check(self, ctx):
        out = []
        if ctx.rel_path not in _RNG_IMPL_FILES:
            out.extend(self._raw_rng(ctx))
        if ctx.rel_path.startswith("src/"):
            out.extend(self._time_seed(ctx))
        if getattr(ctx, "clang_facts", None) is not None and \
                ctx.clang_facts.parsed:
            for line, col, recv, method in ctx.clang_facts.rng_in_parallel:
                out.append(self._parallel_finding(ctx, line, col, recv,
                                                  method))
            out.extend(self._schedule_dependent(ctx, tainted_only=True))
        else:
            out.extend(self._schedule_dependent(ctx, tainted_only=False))
        return out

    # ------------------------------------------------------------ part 1

    def _raw_rng(self, ctx):
        out = []
        for pp in ctx.lexed.pp_lines:
            if "include" in pp.text and "<random>" in pp.text:
                out.append(Finding(
                    self.name, ctx.rel_path, pp.line, 1,
                    "<random> is banned: engine/distribution streams are "
                    "implementation-defined; use histest::Rng "
                    "(common/rng.h)", ctx.line_text(pp.line)))
        toks = ctx.model.tokens
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            if t.text in _STD_RNG_IDS:
                prev = toks[i - 1] if i > 0 else None
                if prev is not None and prev.text == "::":
                    out.append(Finding(
                        self.name, ctx.rel_path, t.line, t.col,
                        f"std::{t.text} is banned: use histest::Rng "
                        f"(common/rng.h), whose stream is bit-identical "
                        f"across platforms", ctx.line_text(t.line)))
            elif t.text in ("rand", "srand"):
                nxt = toks[i + 1] if i + 1 < len(toks) else None
                prev = toks[i - 1] if i > 0 else None
                if nxt is not None and nxt.text == "(" and (
                        prev is None or prev.kind != "punct" or
                        prev.text not in (".", "->", "::")):
                    out.append(Finding(
                        self.name, ctx.rel_path, t.line, t.col,
                        f"{t.text}() is banned: libc PRNG state is global "
                        f"and implementation-defined; use histest::Rng",
                        ctx.line_text(t.line)))
        return out

    # ------------------------------------------------------------ part 2

    def _time_seed(self, ctx):
        toks = ctx.model.tokens
        out = []
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            has_call = nxt is not None and nxt.text == "("
            if not has_call:
                continue
            prev = toks[i - 1] if i > 0 else None
            if t.text == "now" and prev is not None and \
                    prev.text == "::":
                back = [x.text for x in toks[max(0, i - 8):i]]
                if "chrono" in back or any(b in _CLOCK_IDS for b in back):
                    out.append(self._seed_finding(ctx, t,
                                                  "wall-clock now()"))
            elif t.text == "time" and (prev is None or
                                       prev.kind != "punct" or
                                       prev.text not in (".", "->", "::")):
                close = ctx.model.match.get(i + 1)
                if close is not None:
                    args = [x.text for x in toks[i + 2:close]]
                    if args in (["NULL"], ["nullptr"], ["0"]):
                        out.append(self._seed_finding(ctx, t,
                                                      "time(nullptr)"))
            elif t.text in ("clock", "getpid") and (
                    prev is None or prev.kind != "punct" or
                    prev.text not in (".", "->", "::")):
                close = ctx.model.match.get(i + 1)
                if close == i + 2:  # no arguments
                    out.append(self._seed_finding(ctx, t, f"{t.text}()"))
        return out

    def _seed_finding(self, ctx, t, what):
        return Finding(
            self.name, ctx.rel_path, t.line, t.col,
            f"{what} in library code: a seed that differs per run cannot "
            f"reproduce a failure; seeds must be explicit",
            ctx.line_text(t.line))

    # ------------------------------------------------------------ parts 3+4

    def _schedule_dependent(self, ctx, tainted_only: bool):
        toks = ctx.model.tokens
        out = []
        seen = set()
        for fn, st in statement_spans(ctx):
            check_parallel = st.parallel_call and not tainted_only
            if not (check_parallel or st.thread_tainted):
                continue
            i = st.start
            while i < st.end - 1:
                t = toks[i]
                if t.kind == "id" and toks[i + 1].kind == "punct":
                    recv = method = None
                    if toks[i + 1].text in (".", "->") and \
                            i + 3 < st.end and \
                            toks[i + 2].kind == "id" and \
                            toks[i + 3].text == "(":
                        recv, method = t, toks[i + 2]
                    elif toks[i + 1].text == "(":
                        recv, method = t, None  # operator() draw
                    if recv is not None:
                        f = self._check_draw(ctx, fn, st, recv, method,
                                             tainted_only)
                        if f is not None and (f.line, f.col) not in seen:
                            seen.add((f.line, f.col))
                            out.append(f)
                i += 1
            out.extend(self._helper_draws(ctx, fn, st, tainted_only, seen))
        return out

    def _helper_draws(self, ctx, fn, st, tainted_only, seen):
        """Interprocedural half of parts 3+4: `Helper(rng)` where Helper's
        summary says it draws from that parameter position is a draw from
        `rng` at this site — a shared generator handed to a helper inside
        a parallel lambda is as schedule-dependent as a direct draw."""
        summaries = getattr(ctx, "summaries", None)
        if summaries is None:
            return []
        check_parallel = st.parallel_call and not tainted_only
        if not (check_parallel or st.thread_tainted):
            return []
        toks = ctx.model.tokens
        match = ctx.model.match
        out = []
        for callee, op in iter_calls(toks, match, st.start, st.end):
            positions = summaries.draws_rng_params(callee)
            if not positions:
                continue
            args, _ = split_call_args(toks, match, op)
            for a_i, (a_s, a_e) in enumerate(args):
                if a_i not in positions:
                    continue
                for k in range(a_s, a_e):
                    t = toks[k]
                    if t.kind != "id" or \
                            fn.type_of(t.text, ctx.index,
                                       ctx.model.member_types) != "rng":
                        continue
                    if (t.line, t.col) in seen:
                        continue
                    if check_parallel:
                        if fn.is_lambda and fn.declared_locally(t.text):
                            continue  # per-task generator: safe to hand on
                        seen.add((t.line, t.col))
                        out.append(Finding(
                            self.name, ctx.rel_path, t.line, t.col,
                            f"shared Rng '{t.text}' is handed to "
                            f"'{callee}()', which draws from it "
                            f"(interprocedural summary), inside a "
                            f"parallel-harness lambda: draw order then "
                            f"depends on the schedule. Fork() a per-task "
                            f"generator before submitting",
                            ctx.line_text(t.line)))
                    elif st.thread_tainted:
                        seen.add((t.line, t.col))
                        out.append(Finding(
                            self.name, ctx.rel_path, t.line, t.col,
                            f"'{callee}()' draws from '{t.text}' "
                            f"(interprocedural summary) under thread-"
                            f"topology guard; the consumed stream then "
                            f"depends on worker count",
                            ctx.line_text(t.line)))
        return out

    def _check_draw(self, ctx, fn, st, recv, method, tainted_only):
        if method is not None and method.text not in RNG_DRAW_METHODS:
            return None
        cls = fn.type_of(recv.text, ctx.index, ctx.model.member_types)
        if cls != "rng":
            return None
        if method is None and not (fn.is_lambda or st.thread_tainted):
            return None
        if st.parallel_call and not tainted_only:
            if fn.is_lambda and fn.declared_locally(recv.text):
                return None  # per-task generator constructed in the lambda
            mname = method.text if method is not None else "operator()"
            return self._parallel_finding(ctx, recv.line, recv.col,
                                          recv.text, mname)
        if st.thread_tainted:
            mname = method.text if method is not None else "operator()"
            return Finding(
                self.name, ctx.rel_path, recv.line, recv.col,
                f"Rng draw '{recv.text}.{mname}()' is guarded by "
                f"thread-topology state; the consumed stream then depends "
                f"on worker count — draw unconditionally or derive a "
                f"per-task generator up front",
                ctx.line_text(recv.line))
        return None

    def _parallel_finding(self, ctx, line, col, recv, method):
        return Finding(
            self.name, ctx.rel_path, line, col,
            f"'{recv}.{method}()' draws from a shared Rng inside a "
            f"parallel-harness lambda: draw order then depends on the "
            f"schedule. Precompute per-task seeds (or Fork() per task) "
            f"before submitting",
            ctx.line_text(line))
