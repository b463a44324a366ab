"""Helpers shared by the checker implementations."""

from __future__ import annotations


def statement_spans(ctx):
    """Yields (fn, stmt) over every function's statements."""
    for fn in ctx.model.functions:
        for st in fn.statements:
            yield fn, st
