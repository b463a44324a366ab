"""clock-discipline: all timing flows through the obs layer's clocks.

Raw time sources — ``std::chrono::*_clock::now()``, libc ``clock()``,
``clock_gettime()``, ``gettimeofday()`` — are banned outside ``src/obs/``
(the sanctioned implementation) and ``src/benchutil/`` (the harness layer
that owns run-scoped timing). Every other call site must read an
injected ``obs::Clock`` or time itself with an ``obs::TraceSpan``; that
is what keeps the determinism contract checkable: timing then cannot
leak into verdict paths, a ``NullClock``/``FakeClock`` makes traced runs
reproducible, and disabled-mode builds read no clock at all.

Overlap with rng-stream is intentional and narrower than it looks:
rng-stream flags wall-clock reads under ``src/`` as *seed material*;
this checker bans the read itself everywhere the analyzer scans,
including bench/, tests/, and examples/.
"""

from __future__ import annotations

from ..engine import Checker, Finding, register

_CHRONO_CLOCK_IDS = frozenset({"steady_clock", "system_clock",
                               "high_resolution_clock"})

# Free functions that read a timer when called with arguments.
_LIBC_TIME_FNS = frozenset({"clock_gettime", "gettimeofday", "timespec_get"})


@register
class ClockDisciplineChecker(Checker):
    name = "clock-discipline"
    description = ("timing must go through obs::Clock / obs::TraceSpan; "
                   "raw clock reads are banned outside src/obs and "
                   "src/benchutil")
    scopes = None
    exempt = ("src/obs/*", "src/benchutil/*")

    def check(self, ctx):
        toks = ctx.model.tokens
        out = []
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            if nxt is None or nxt.text != "(":
                continue
            prev = toks[i - 1] if i > 0 else None
            prev_is_member = (prev is not None and prev.kind == "punct"
                              and prev.text in (".", "->"))
            if t.text == "now" and prev is not None and prev.text == "::":
                back = [x.text for x in toks[max(0, i - 8):i]]
                if "chrono" in back or \
                        any(b in _CHRONO_CLOCK_IDS for b in back):
                    out.append(self._finding(
                        ctx, t, "std::chrono clock now()"))
            elif t.text == "clock" and not prev_is_member and \
                    (prev is None or prev.text != "::"):
                close = ctx.model.match.get(i + 1)
                if close == i + 2:  # clock() with no arguments
                    out.append(self._finding(ctx, t, "libc clock()"))
            elif t.text in _LIBC_TIME_FNS and not prev_is_member:
                out.append(self._finding(ctx, t, f"{t.text}()"))
        return out

    def _finding(self, ctx, t, what):
        return Finding(
            self.name, ctx.rel_path, t.line, t.col,
            f"{what} is a raw clock read: read an injected obs::Clock "
            f"(src/obs/clock.h) or time it with an obs::TraceSpan so traced "
            f"runs stay reproducible and disabled-mode builds read no clock",
            ctx.line_text(t.line))
