"""Analyzer core: findings, checker registry, suppressions, file scanning.

Suppression contract (enforced here, uniformly for every checker):

  * Inline:  ``// analyzer-allow(<checker>): <reason>``
    Applies to findings on the comment's own line, or — when the comment
    stands alone on its line — to the next line of code. The reason is
    mandatory; an empty reason is itself reported as a ``bad-suppression``
    finding, so every standing exemption is justified at the point of use.
  * A suppression that filters no finding is a ``stale-suppression``
    finding (a warning, an error under ``--strict-suppressions``).
"""

from __future__ import annotations

import fnmatch
import pathlib
import re
from dataclasses import dataclass, field

from . import TOOL_NAME

# C++ sources scanned by default, relative to the repo root.
DEFAULT_SCAN_DIRS = ("src", "bench", "tests", "examples")
SOURCE_SUFFIXES = (".cc", ".h")

# Deliberately-broken inputs for the analyzer's own tests; never part of a
# default scan (explicit paths still reach them).
EXCLUDED_DIRS = ("tests/analyzer/fixtures",)

ALLOW_COMMENT = re.compile(
    r"analyzer-allow\(([a-z][a-z0-9-]*)\)\s*(?::\s*(.*))?")


@dataclass(frozen=True)
class Finding:
    checker: str
    path: str          # repo-relative, '/'-separated
    line: int
    col: int
    message: str
    snippet: str = ""
    severity: str = "error"  # error | warning

    def format_text(self) -> str:
        loc = f"{self.path}:{self.line}:{self.col}"
        out = f"{loc}: [{self.checker}] {self.message}"
        if self.snippet:
            out += f"\n    {self.snippet.strip()}"
        return out


@dataclass
class Suppression:
    checker: str
    line: int          # line the suppression applies to
    reason: str
    origin_line: int   # line the comment itself is on


class FileContext:
    """Everything a checker needs to analyze one file."""

    def __init__(self, rel_path: str, text: str, lexed, model, index,
                 summaries):
        self.rel_path = rel_path   # repo-relative, '/'-separated
        self.lines = text.splitlines()
        self.lexed = lexed
        self.model = model
        self.index = index
        self.summaries = summaries

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


class Checker:
    """Base class. Subclasses set `name`, `description`, `scopes` and
    implement `check(ctx) -> list[Finding]`.

    `scopes` is a tuple of repo-relative path prefixes the checker applies
    to; None means every scanned file. `exempt` globs are skipped even
    in-scope (the approved implementation of the pattern being banned).
    """

    name: str = ""
    description: str = ""
    scopes = None          # tuple[str, ...] | None
    exempt = ()            # tuple[str, ...] path globs

    def applies_to(self, rel_path: str) -> bool:
        if any(fnmatch.fnmatch(rel_path, g) for g in self.exempt):
            return False
        if self.scopes is None:
            return True
        return any(rel_path.startswith(p) for p in self.scopes)

    def check(self, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Checker] = {}


def register(checker):
    """Adds a checker to the global registry. Works as a class decorator
    and on an instance (table-driven checkers register one per row)."""
    inst = checker() if isinstance(checker, type) else checker
    if not inst.name:
        raise ValueError(f"checker {checker!r} has no name")
    if inst.name in _REGISTRY:
        raise ValueError(f"duplicate checker name {inst.name!r}")
    _REGISTRY[inst.name] = inst
    return checker


def registry() -> dict[str, Checker]:
    # Importing the checkers package populates the registry exactly once.
    from . import checkers  # noqa: F401  (import for side effect)
    return _REGISTRY


def extract_suppressions(lexed, lines: list[str]):
    """Returns (suppressions, bad_suppression_findings)."""
    sups: list[Suppression] = []
    bad: list[tuple[int, str]] = []
    for comment in lexed.comments:
        for m in ALLOW_COMMENT.finditer(comment.text):
            checker = m.group(1)
            reason = (m.group(2) or "").strip()
            if not reason:
                bad.append((comment.line, checker))
                continue
            target = comment.line
            # A comment alone on its line suppresses the next code line,
            # skipping continuation comment lines in between so multi-line
            # reasons work.
            line_text = lines[comment.line - 1] \
                if comment.line <= len(lines) else ""
            before = line_text[:comment.col - 1]
            if not before.strip():
                target = comment.line + 1
                while target <= len(lines) and \
                        lines[target - 1].lstrip().startswith("//"):
                    target += 1
            sups.append(Suppression(checker, target, reason, comment.line))
    return sups, bad


@dataclass
class ScanResult:
    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def errors(self):
        return [f for f in self.findings if f.severity == "error"]


def iter_sources(root: pathlib.Path, paths=None):
    """Yields source files: the explicit `paths` if given, else the default
    scan dirs under `root`."""
    if paths:
        for p in paths:
            p = pathlib.Path(p)
            if p.is_dir():
                for f in sorted(p.rglob("*")):
                    if f.suffix in SOURCE_SUFFIXES and f.is_file():
                        yield f
            elif p.is_file():
                yield p
        return
    for d in DEFAULT_SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for f in sorted(base.rglob("*")):
            if f.suffix not in SOURCE_SUFFIXES or not f.is_file():
                continue
            rel = f.relative_to(root).as_posix()
            if any(rel.startswith(e + "/") for e in EXCLUDED_DIRS):
                continue
            yield f


def build_contexts(root: pathlib.Path, files) -> list[FileContext]:
    """Lexes and models `files` plus every header under src/ (explicit-path
    scans still need repo-wide return types and Rng-draw summaries), then
    returns one context per scanned file."""
    from .index import SymbolIndex
    from .lexer import lex
    from .model import Model
    from .summaries import RngDrawSummaries

    scanned = list(dict.fromkeys(pathlib.Path(p).resolve() for p in files))
    src = root / "src"
    headers = sorted(src.rglob("*.h")) if src.is_dir() else []
    extra = [h.resolve() for h in headers]
    parsed = {}
    for path in dict.fromkeys(scanned + extra):
        try:
            text = path.read_text(errors="replace")
        except OSError:
            continue
        lexed = lex(text)
        parsed[path] = (text, lexed, Model(lexed))

    index = SymbolIndex()
    summaries = RngDrawSummaries()
    for _, _, model in parsed.values():
        index.add_model(model)
        summaries.add_model(model)
    summaries.finalize()
    root = root.resolve()
    return [FileContext(path.relative_to(root).as_posix()
                        if path.is_relative_to(root) else path.as_posix(),
                        *parsed[path], index, summaries)
            for path in scanned if path in parsed]


def run_scan(root: pathlib.Path, checker_names=None, paths=None,
             strict_suppressions: bool = False) -> ScanResult:
    """Scans and returns findings after suppression filtering.

    Suppressions that filtered no finding are themselves reported as
    `stale-suppression` findings (severity warning, or error under
    `strict_suppressions`) — an exemption that matches nothing is either a
    fixed issue whose justification now misleads, or a typo that will
    silently fail to suppress when the issue returns."""
    checkers_by_name = registry()
    if checker_names:
        unknown = set(checker_names) - set(checkers_by_name)
        if unknown:
            raise ValueError(f"unknown checker(s): {', '.join(sorted(unknown))}")
        active = [checkers_by_name[n] for n in checker_names]
    else:
        active = list(checkers_by_name.values())
    active_names = {c.name for c in active}
    stale_severity = "error" if strict_suppressions else "warning"

    result = ScanResult()
    for ctx in build_contexts(root, iter_sources(root, paths)):
        result.files_scanned += 1
        sups, bad = extract_suppressions(ctx.lexed, ctx.lines)
        for line, checker in bad:
            result.findings.append(Finding(
                "bad-suppression", ctx.rel_path, line, 1,
                f"analyzer-allow({checker}) without a reason; write "
                f"'// analyzer-allow({checker}): <why this is safe>'",
                ctx.line_text(line)))
        used: set = set()
        for checker in active:
            if not checker.applies_to(ctx.rel_path):
                continue
            for f in checker.check(ctx):
                matched = [s for s in sups
                           if s.checker == f.checker and s.line == f.line]
                if matched:
                    used.update(id(s) for s in matched)
                else:
                    result.findings.append(f)
        for s in sups:
            if id(s) in used or s.checker not in active_names:
                continue
            result.findings.append(Finding(
                "stale-suppression", ctx.rel_path, s.origin_line, 1,
                f"analyzer-allow({s.checker}) suppresses no finding; the "
                f"issue it justified is gone — remove the comment (or fix "
                f"the checker name if this was meant to match)",
                ctx.line_text(s.origin_line), severity=stale_severity))

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.checker))
    return result


def render_text(result: ScanResult) -> str:
    parts = [f.format_text() for f in result.findings]
    if not result.findings:
        parts.append(f"{TOOL_NAME}: clean ({result.files_scanned} files)")
    else:
        errors = len(result.errors)
        warnings = len(result.findings) - errors
        detail = f"{errors} error(s)"
        if warnings:
            detail += f", {warnings} warning(s)"
        parts.append(f"{TOOL_NAME}: {detail} in "
                     f"{result.files_scanned} files")
    return "\n".join(parts) + "\n"
