"""arena-escape: storage minted from a ScratchArena must not outlive the
Scope that will rewind it.

`ScratchArena::Scope` rewinds the bump pointer on destruction; every
pointer/span handed out by `Alloc<T>()` after the scope opened dangles the
moment it closes. Three escape routes are flagged:

  1. returning an arena-derived pointer/span from a function that opened
     its own Scope — the caller receives already-rewound storage;
  2. storing an arena-derived value in a class member (`this->p`,
     trailing-underscore name, or a known member) or other non-local —
     members outlive every scope;
  3. capturing an arena-derived value (or the arena itself) in a lambda
     handed to a *deferring* entry point (Submit / Enqueue / Dispatch) —
     the task may run after the enclosing Scope rewinds. ParallelFor,
     ThreadPool::Run and RunParallel join before returning and are exempt.

Taint is interprocedural: `auto* p = MakeBuf(arena);` marks `p` when
`MakeBuf`'s summary says its return aliases arena storage (summaries.py),
so a one-helper indirection does not hide the escape. Functions that
return arena storage *without* opening their own Scope are treated as
allocation helpers, not violations: the fact is recorded in their summary
and judged at the call site that owns the Scope.
"""

from __future__ import annotations

from ..engine import Checker, Finding, register
from ..summaries import (DEFERRED_ENTRY_POINTS, EmptySummaries,
                         arena_vars, compute_arena_taint, find_escaping,
                         has_local_scope, iter_return_stmts, _is_arena_alloc)


def _chain_taint(fn, model, summaries):
    """Arena-tainted names visible in `fn`: its own plus every enclosing
    function's (lambdas see captured outer locals)."""
    tainted = set()
    arenas = set()
    cur = fn
    while cur is not None:
        tainted |= compute_arena_taint(cur, model, summaries)
        arenas |= arena_vars(cur)
        cur = cur.parent
    return tainted, arenas


@register
class ArenaEscapeChecker(Checker):
    name = "arena-escape"
    description = ("pointers into ScratchArena storage must not outlive "
                   "the Scope that rewinds them")
    scopes = None

    def check(self, ctx):
        out = []
        summaries = getattr(ctx, "summaries", None) or EmptySummaries()
        toks = ctx.model.tokens
        for fn in ctx.model.functions:
            if fn.is_lambda:
                out.extend(self._deferred_capture(ctx, fn, summaries))
                continue
            tainted = compute_arena_taint(fn, ctx.model, summaries)
            if not tainted and not arena_vars(fn):
                continue
            out.extend(self._returns(ctx, fn, tainted, summaries))
            out.extend(self._member_stores(ctx, fn, tainted, summaries))
        return out

    # ------------------------------------------------------------- returns

    def _returns(self, ctx, fn, tainted, summaries):
        """Return of arena-derived storage is a definite use-after-rewind
        only when this function owns the Scope; otherwise the summary
        layer records `returns_arena` and the judging happens upstream."""
        toks = ctx.model.tokens
        if not has_local_scope(fn, toks):
            return []
        arenas = arena_vars(fn)
        out = []
        for r_s, r_e in iter_return_stmts(fn, toks):
            hit = find_escaping(toks, r_s, r_e, tainted)
            if hit is not None:
                t = toks[hit]
                out.append(Finding(
                    self.name, ctx.rel_path, t.line, t.col,
                    f"'{t.text}' aliases ScratchArena storage and is "
                    f"returned past this function's Scope rewind; copy the "
                    f"data out or let the caller own the allocation",
                    ctx.line_text(t.line)))
                continue
            if _is_arena_alloc(toks, ctx.model.match, r_s, r_e, arenas):
                t = toks[r_s]
                out.append(Finding(
                    self.name, ctx.rel_path, t.line, t.col,
                    "returns a fresh ScratchArena allocation past this "
                    "function's Scope rewind; copy the data out or let "
                    "the caller own the allocation",
                    ctx.line_text(t.line)))
        return out

    # ------------------------------------------------------- member stores

    def _member_stores(self, ctx, fn, tainted, summaries):
        """`member_ = p;` / `this->m = p;` where `p` is arena-tainted:
        the member outlives every Scope."""
        toks = ctx.model.tokens
        match = ctx.model.match
        members = ctx.model.member_types
        arenas = arena_vars(fn)
        out = []
        for st in fn.statements:
            eq = self._top_level_assign(toks, match, st)
            if eq is None:
                continue
            target = self._nonlocal_target(toks, st.start, eq, fn, members)
            if target is None:
                continue
            hit = find_escaping(toks, eq + 1, st.end, tainted)
            if hit is None and not _is_arena_alloc(toks, match, eq + 1,
                                                   st.end, arenas):
                continue
            what = f"'{toks[hit].text}'" if hit is not None \
                else "a fresh ScratchArena allocation"
            t = toks[target]
            out.append(Finding(
                self.name, ctx.rel_path, t.line, t.col,
                f"stores {what} (aliases ScratchArena storage) in "
                f"'{t.text}', which outlives the arena Scope; members and "
                f"globals must own their storage",
                ctx.line_text(t.line)))
        return out

    def _top_level_assign(self, toks, match, st):
        """Token index of a depth-0 `=` in the statement, or None."""
        depth = 0
        for i in range(st.start, st.end):
            t = toks[i]
            if t.kind != "punct":
                continue
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            elif t.text == "=" and depth == 0:
                return i
        return None

    def _nonlocal_target(self, toks, lo, eq, fn, members):
        """Token index of the assigned name when the LHS is a member or
        global (outlives the function), else None. Local declarations and
        local reassignments are lifetime-safe."""
        # `this->name = ...`
        if eq - lo >= 3 and toks[eq - 3].text == "this" and \
                toks[eq - 2].text == "->" and toks[eq - 1].kind == "id":
            return eq - 1
        # `name = ...` (single-token LHS only: obj.field is out of model)
        if eq - lo == 1 and toks[lo].kind == "id":
            name = toks[lo].text
            if fn.declared_locally(name) or name in fn.decl_texts:
                return None
            if any(name == p for p, _ in fn.param_order):
                return None
            if name.endswith("_") or name in members:
                return lo
        return None

    # --------------------------------------------------- deferred captures

    def _deferred_capture(self, ctx, lam, summaries):
        """Arena-derived names captured by a lambda handed to Submit /
        Enqueue / Dispatch: the task can run after the Scope rewinds, so
        *any* use of the captured name inside the body is an escape."""
        if lam.parallel_call not in DEFERRED_ENTRY_POINTS:
            return []
        tainted, arenas = _chain_taint(lam.parent, ctx.model, summaries) \
            if lam.parent is not None else (set(), set())
        hazardous = tainted | arenas
        if not hazardous:
            return []
        toks = ctx.model.tokens
        out = []
        seen = set()
        for i in range(lam.body_open + 1, lam.body_close):
            t = toks[i]
            if t.kind != "id" or t.text not in hazardous:
                continue
            if lam.declared_locally(t.text) or t.text in lam.decl_texts:
                continue  # shadowed by a lambda-local or parameter
            if t.text in seen:
                continue
            seen.add(t.text)
            kind = "the ScratchArena itself" if t.text in arenas \
                else "ScratchArena-derived storage"
            out.append(Finding(
                self.name, ctx.rel_path, t.line, t.col,
                f"lambda passed to {lam.parallel_call}() captures "
                f"'{t.text}' ({kind}); the deferred task may run after "
                f"the enclosing Scope rewinds — copy the data into the "
                f"task or allocate from ScratchArena::ThreadLocal() "
                f"inside it",
                ctx.line_text(t.line)))
        return out
