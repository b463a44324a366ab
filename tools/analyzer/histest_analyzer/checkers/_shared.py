"""Token-level helpers shared by the internal checker implementations."""

from __future__ import annotations


def iter_member_calls(tokens, lo, hi):
    """Yields (recv_idx, method_idx, open_idx) for `recv.M(` / `recv->M(`
    patterns, and (None, name_idx, open_idx) for plain `name(` calls."""
    for i in range(lo, hi - 1):
        t = tokens[i]
        if t.kind != "id":
            continue
        nxt = tokens[i + 1]
        if not (nxt.kind == "punct" and nxt.text == "("):
            continue
        prev = tokens[i - 1] if i - 1 >= lo else None
        if prev is not None and prev.kind == "punct" and \
                prev.text in (".", "->"):
            base = tokens[i - 2] if i - 2 >= lo else None
            if base is not None and base.kind == "id":
                yield (i - 2, i, i + 1)
                continue
        yield (None, i, i + 1)


def statement_spans(ctx):
    """Yields (fn, stmt) over every function's statements."""
    for fn in ctx.model.functions:
        for st in fn.statements:
            yield fn, st
