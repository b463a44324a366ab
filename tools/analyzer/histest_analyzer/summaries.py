"""Interprocedural Rng-draw summaries for the rng-stream checker.

A shared generator handed to a helper that draws from it, inside a
parallel-harness lambda or under a thread-topology guard, is as
schedule-dependent as a direct draw — and invisible to a single-function
analysis. For every named function definition in the scanned tree (plus
the src/ headers) this table records which ``Rng&`` parameter positions
the body draws from, directly or by passing the parameter on to a callee
that does.

Facts only grow, so the bottom-up fixpoint over the call graph terminates;
recursion cycles converge. Function identity is by bare name: overload sets
share one entry and union their facts, erring toward reporting.
"""

from __future__ import annotations

from .model import RNG_DRAW_METHODS


def split_call_args(toks, match, open_idx):
    """Splits the argument list of the call whose '(' is at `open_idx` into
    per-argument (start, end) token index ranges. Returns (args, close)."""
    close = match.get(open_idx)
    if close is None:
        return [], open_idx
    args = []
    depth = 0
    seg = open_idx + 1
    for i in range(open_idx + 1, close):
        t = toks[i]
        if t.kind == "punct":
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            elif t.text == "," and depth == 0:
                args.append((seg, i))
                seg = i + 1
    if seg < close:
        args.append((seg, close))
    return args, close


def iter_calls(toks, match, start, end):
    """Yields (callee_name, open_paren_idx) for plain `Name(...)` calls in
    [start, end). Member calls (`x.Name(...)`) carry the member name."""
    for i in range(start, end):
        t = toks[i]
        if t.kind == "punct" and t.text == "(" and i > start:
            p = toks[i - 1]
            if p.kind == "id":
                yield p.text, i


class RngDrawSummaries:
    """Function name -> Rng parameter positions it draws from."""

    def __init__(self):
        self._draws: dict[str, set] = {}
        self._functions: list = []   # (fn, model) for named definitions

    def add_model(self, model) -> None:
        for fn in model.functions:
            if not fn.is_lambda and fn.name and fn.name != "<lambda>":
                self._functions.append((fn, model))

    def finalize(self, max_passes: int = 10) -> None:
        """Derives all summaries, iterating to a fixpoint. `max_passes` is
        a safety bound: deeper wrapper chains lose precision only."""
        for _ in range(max_passes):
            grew = False
            for fn, model in self._functions:
                rng_pos = {n: i for i, (n, c) in enumerate(fn.param_order)
                           if n and c == "rng"}
                body = (fn.body_open + 1, fn.body_close)
                found = {pos for name, pos in rng_pos.items()
                         if self._draws_from(model, body, name)}
                cur = self._draws.setdefault(fn.name, set())
                if not found <= cur:
                    cur |= found
                    grew = True
            if not grew:
                break

    def _draws_from(self, model, body, name) -> bool:
        toks = model.tokens
        start, end = body
        for i in range(start, end):
            t = toks[i]
            if t.kind != "id" or t.text != name:
                continue
            nxt = toks[i + 1] if i + 1 < end else None
            if nxt is not None and nxt.kind == "punct" and \
                    nxt.text in (".", "->"):
                meth = toks[i + 2] if i + 2 < end else None
                if meth is not None and meth.kind == "id" and \
                        meth.text in RNG_DRAW_METHODS:
                    return True
                continue
            # Passed onward: `Helper(name, ...)` where Helper draws from
            # that position.
            prev = toks[i - 1] if i - 1 >= start else None
            if prev is None or prev.kind != "punct" or \
                    prev.text not in ("(", ","):
                continue
            op = i - 1
            depth = 0
            while op >= start:
                tt = toks[op]
                if tt.kind == "punct":
                    if tt.text == ")":
                        depth += 1
                    elif tt.text == "(":
                        if depth == 0:
                            break
                        depth -= 1
                op -= 1
            if op - 1 < start or toks[op - 1].kind != "id":
                continue
            positions = self._draws.get(toks[op - 1].text)
            if not positions:
                continue
            args, _ = split_call_args(toks, model.match, op)
            for a_i, (a_s, a_e) in enumerate(args):
                if a_i in positions and any(
                        toks[k].kind == "id" and toks[k].text == name
                        for k in range(a_s, a_e)):
                    return True
        return False

    def draws_rng_params(self, name: str) -> set:
        return self._draws.get(name, set())
