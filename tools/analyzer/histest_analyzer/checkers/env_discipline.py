"""env-discipline: environment reads go through the common/cli.h parsers.

Raw `std::getenv` scatters ad-hoc parsing (atoi with silent zero on
garbage, inconsistent empty-string semantics) and bypasses the
out-of-range diagnostics that ParseEnvInt / ParseEnvDouble / ParseEnvFlag
centralize. One call site is sanctioned: the parsers'
own implementation in src/common/cli.cc.
"""

from __future__ import annotations

from ..engine import Checker, Finding, register

_BANNED = frozenset({"getenv", "secure_getenv", "_wgetenv"})


@register
class EnvDisciplineChecker(Checker):
    name = "env-discipline"
    description = ("raw getenv is banned; use ParseEnv* from common/cli.h")
    scopes = None
    exempt = ("src/common/cli.cc",)

    def check(self, ctx):
        toks = ctx.model.tokens
        out = []
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text not in _BANNED:
                continue
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            if nxt is None or nxt.kind != "punct" or nxt.text != "(":
                continue
            prev = toks[i - 1] if i > 0 else None
            # Member calls `env.getenv(...)` are a different API; `std::`
            # and `::` qualifications are still the libc function.
            if prev is not None and prev.kind == "punct" and \
                    prev.text in (".", "->"):
                continue
            out.append(Finding(
                self.name, ctx.rel_path, t.line, t.col,
                f"raw {t.text}() bypasses the shared env parsing and "
                f"diagnostics; use ParseEnvInt/ParseEnvDouble/ParseEnvFlag "
                f"from common/cli.h (sole sanctioned call "
                f"site: src/common/cli.cc)",
                ctx.line_text(t.line)))
        return out
