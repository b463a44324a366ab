"""obs-name-discipline: observability names come from src/obs/names.h.

Metric and span names are a cross-language contract: the C++ emitters,
tools/histest-trace, and tools/trace_gate.py must agree on every string.
src/obs/names.h is the single registry (an X-macro table parsed by
tools/obs_names.py), so a string literal at an instrumentation call site
is a name the tooling cannot see. Three literal shapes are flagged in
src/:

  1. a literal first argument to AddCount / SetGauge;
  2. a literal first argument to a TraceSpan constructor;
  3. any literal spelled like a registry name (`histest.*` / `stage.*`) —
     catches names smuggled through locals or helper wrappers.

The registry header itself is exempt (it is where the literals live), as
is everything outside src/ — fixtures and bench-internal synthetic names
are not part of the contract.
"""

from __future__ import annotations

import re

from ..engine import Checker, Finding, register

_ENTRY_POINTS = frozenset({"AddCount", "SetGauge"})
_CTOR_TYPES = frozenset({"TraceSpan"})

# Dotted names in the registry's two namespaces. Anchored: plain prose
# containing "histest." mid-sentence does not match.
_NAME_RE = re.compile(r'^(histest|stage)\.[A-Za-z0-9_.]+$')


def _literal_first_arg(toks, open_idx):
    """The token of a string-literal first argument of the call whose '('
    is at `open_idx`, or None."""
    if open_idx + 1 < len(toks) and toks[open_idx + 1].kind == "str":
        return toks[open_idx + 1]
    return None


@register
class ObsNameDisciplineChecker(Checker):
    name = "obs-name-discipline"
    description = ("metric/span name literals must come from the "
                   "src/obs/names.h registry")
    scopes = ("src/",)
    exempt = ("src/obs/names.h",)

    def check(self, ctx):
        toks = ctx.model.tokens
        out = []
        seen = set()

        def emit(tok, msg):
            key = (tok.line, tok.col)
            if key in seen:
                return
            seen.add(key)
            out.append(Finding(self.name, ctx.rel_path, tok.line, tok.col,
                               msg, ctx.line_text(tok.line)))

        for i, t in enumerate(toks):
            called = t.kind == "id" and i + 1 < len(toks) and \
                toks[i + 1].kind == "punct" and toks[i + 1].text == "("
            if called:
                lit = _literal_first_arg(toks, i + 1)
                prev = toks[i - 1] if i > 0 else None
                ctor = None
                if t.text in _CTOR_TYPES:
                    ctor = t.text  # unnamed temporary: TraceSpan("...")
                elif prev is not None and prev.kind == "id" and \
                        prev.text in _CTOR_TYPES:
                    ctor = prev.text  # named: TraceSpan span("...")
                if lit is not None and t.text in _ENTRY_POINTS:
                    emit(lit,
                         f"string literal passed to {t.text}(); use a "
                         f"constant from src/obs/names.h "
                         f"(histest::obs::names) so histest-trace and "
                         f"trace_gate.py can validate the name")
                elif lit is not None and ctor is not None:
                    emit(lit,
                         f"string literal names this {ctor}; use a "
                         f"constant from src/obs/names.h so the span "
                         f"name is registered for the trace tooling")
            if t.kind == "str" and _NAME_RE.match(t.text.strip('"')):
                emit(t,
                     f"literal {t.text} spells a registry-namespace "
                     f"observability name; reference it as a "
                     f"histest::obs::names constant instead of re-typing "
                     f"the string")
        return out
