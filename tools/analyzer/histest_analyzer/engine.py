"""Analyzer core: findings, checker registry, suppressions, file scanning.

Suppression contract (enforced here, uniformly for every checker):

  * Inline:  ``// analyzer-allow(<checker>): <reason>``
    Applies to findings on the comment's own line, or — when the comment
    stands alone on its line — to the next line of code. The reason is
    mandatory; an empty reason is itself reported as a ``bad-suppression``
    finding, so every standing exemption is justified at the point of use.
  * File-level: an entry ``<checker> <path-glob> -- <reason>`` in
    ``tools/analyzer/allowlist.txt`` for whole-file exemptions (generated
    code, the RNG implementation itself, ...). The reason is mandatory
    there too.
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

    def __init__(self, root: pathlib.Path, path: pathlib.Path, text: str,
                 lexed, model, index):
        self.root = root
        self.path = path
        self.rel_path = path.resolve().relative_to(root.resolve()).as_posix() \
            if path.resolve().is_relative_to(root.resolve()) \
            else path.as_posix()
        self.text = text
        self.lines = text.splitlines()
        self.lexed = lexed
        self.model = model
        self.index = index

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

    def applies_to(self, rel_path: str, all_scopes: bool = False) -> bool:
        if any(fnmatch.fnmatch(rel_path, g) for g in self.exempt):
            return False
        if self.scopes is None or all_scopes:
            return True
        return any(rel_path.startswith(p) for p in self.scopes)

    def check(self, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Checker] = {}


def register(cls):
    """Class decorator adding a checker to the global registry."""
    inst = cls()
    if not inst.name:
        raise ValueError(f"checker {cls.__name__} has no name")
    if inst.name in _REGISTRY:
        raise ValueError(f"duplicate checker name {inst.name!r}")
    _REGISTRY[inst.name] = inst
    return cls


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
class AllowlistEntry:
    checker: str
    glob: str
    reason: str
    line: int


def load_allowlist(path: pathlib.Path, known_checkers) -> list[AllowlistEntry]:
    """Parses tools/analyzer/allowlist.txt. Raises ValueError on malformed
    entries (missing reason, unknown checker) so CI rejects them."""
    entries: list[AllowlistEntry] = []
    if not path.exists():
        return entries
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "--" in stripped:
            spec, reason = stripped.split("--", 1)
            reason = reason.strip()
        else:
            spec, reason = stripped, ""
        parts = spec.split()
        if len(parts) != 2 or not reason:
            raise ValueError(
                f"{path}:{lineno}: malformed allowlist entry (want "
                f"'<checker> <glob> -- <reason>'): {raw!r}")
        checker, glob = parts
        if checker not in known_checkers:
            raise ValueError(
                f"{path}:{lineno}: unknown checker {checker!r}")
        entries.append(AllowlistEntry(checker, glob, reason, lineno))
    return entries


def allowlisted(entries, checker: str, rel_path: str) -> bool:
    return allowlist_match(entries, checker, rel_path) is not None


def allowlist_match(entries, checker: str, rel_path: str):
    """Returns the first matching AllowlistEntry, or None — callers that
    track suppression staleness need the entry identity, not just a bool."""
    for e in entries:
        if e.checker == checker and fnmatch.fnmatch(rel_path, e.glob):
            return e
    return None


@dataclass
class ScanResult:
    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    backend: str = "internal"
    checkers_run: tuple = ()
    parse_seconds: float = 0.0
    check_seconds: float = 0.0
    parse_jobs: int = 1

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


def changed_files(root: pathlib.Path, base_ref: str = "",
                  cached: bool = False):
    """Scannable sources changed relative to `base_ref` (or, with `cached`,
    staged for commit). Deletions, non-source files, files outside the
    default scan dirs, and analyzer fixtures are filtered out; untracked
    files are not diffs and are never included. Raises RuntimeError when
    git cannot answer (not a repository, unknown ref, ...)."""
    import subprocess
    cmd = ["git", "-C", str(root), "diff", "--name-only", "-z",
           "--diff-filter=d"]
    if cached:
        cmd.append("--cached")
    if base_ref:
        cmd.append(base_ref)
    cmd.append("--")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as err:
        raise RuntimeError(f"cannot run git: {err}")
    if proc.returncode != 0:
        raise RuntimeError(
            f"git diff failed ({' '.join(cmd)}): {proc.stderr.strip()}")
    files = []
    for rel in proc.stdout.split("\0"):
        if not rel or not rel.endswith(SOURCE_SUFFIXES):
            continue
        if not any(rel.startswith(d + "/") for d in DEFAULT_SCAN_DIRS):
            continue
        if any(rel.startswith(e + "/") for e in EXCLUDED_DIRS):
            continue
        path = root / rel
        if path.is_file():
            files.append(path)
    return files


def run_scan(root: pathlib.Path, checker_names=None, paths=None,
             all_scopes: bool = False, backend: str = "auto",
             index_tree: bool = False, jobs: int = 1,
             report_stale: bool = True,
             strict_suppressions: bool = False) -> ScanResult:
    """Scans and returns findings after suppression filtering.

    `index_tree` additionally feeds every default-scan-dir source into the
    cross-file symbol index (not just the scanned files plus src/ headers),
    so incremental scans of a few changed files still see repo-wide
    declarations.

    `jobs` > 1 parallelizes the parse phase over processes (the summary
    fixpoint and checkers stay serial).

    Suppressions that filtered no finding are themselves reported as
    `stale-suppression` findings (severity warning, or error under
    `strict_suppressions`) — an exemption that matches nothing is either a
    fixed issue whose justification now misleads, or a typo that will
    silently fail to suppress when the issue returns. Allowlist staleness
    is only judged on full default-tree scans; a --diff or explicit-path
    scan sees too few files to conclude an entry is dead."""
    import time as _time

    from . import backends

    checkers_by_name = registry()
    if checker_names:
        unknown = set(checker_names) - set(checkers_by_name)
        if unknown:
            raise ValueError(f"unknown checker(s): {', '.join(sorted(unknown))}")
        active = [checkers_by_name[n] for n in checker_names]
    else:
        active = list(checkers_by_name.values())

    allowlist = load_allowlist(root / "tools" / "analyzer" / "allowlist.txt",
                               set(checkers_by_name))

    files = list(iter_sources(root, paths))
    impl = backends.select(backend)
    result = ScanResult(backend=impl.name,
                        checkers_run=tuple(c.name for c in active))
    active_names = {c.name for c in active}
    stale_severity = "error" if strict_suppressions else "warning"

    contexts = impl.build_contexts(root, files, index_tree=index_tree,
                                   jobs=jobs)
    result.parse_seconds = getattr(impl, "parse_seconds", 0.0)
    result.parse_jobs = getattr(impl, "parse_jobs", 1)
    t_check = _time.monotonic()
    used_allowlist_ids: set = set()
    for ctx in contexts:
        result.files_scanned += 1
        sups, bad = extract_suppressions(ctx.lexed, ctx.lines)
        for line, checker in bad:
            result.findings.append(Finding(
                "bad-suppression", ctx.rel_path, line, 1,
                f"analyzer-allow({checker}) without a reason; write "
                f"'// analyzer-allow({checker}): <why this is safe>'",
                ctx.line_text(line)))
        raw: list[Finding] = []
        for checker in active:
            if not checker.applies_to(ctx.rel_path, all_scopes):
                continue
            raw.extend(checker.check(ctx))
        used_sup_ids: set = set()
        for f in raw:
            matched = [s for s in sups
                       if s.checker == f.checker and s.line == f.line]
            if matched:
                used_sup_ids.update(id(s) for s in matched)
                continue
            entry = allowlist_match(allowlist, f.checker, ctx.rel_path)
            if entry is not None:
                used_allowlist_ids.add(id(entry))
                continue
            result.findings.append(f)
        if not report_stale:
            continue
        for s in sups:
            if id(s) in used_sup_ids or s.checker not in active_names:
                continue
            result.findings.append(Finding(
                "stale-suppression", ctx.rel_path, s.origin_line, 1,
                f"analyzer-allow({s.checker}) suppresses no finding; the "
                f"issue it justified is gone — remove the comment (or fix "
                f"the checker name if this was meant to match)",
                ctx.line_text(s.origin_line), severity=stale_severity))
    result.check_seconds = _time.monotonic() - t_check

    if report_stale and not paths:
        allow_rel = "tools/analyzer/allowlist.txt"
        for entry in allowlist:
            if id(entry) in used_allowlist_ids or \
                    entry.checker not in active_names:
                continue
            result.findings.append(Finding(
                "stale-suppression", allow_rel, entry.line, 1,
                f"allowlist entry '{entry.checker} {entry.glob}' exempts "
                f"no finding on a full-tree scan; remove it",
                severity=stale_severity))

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.checker))
    return result


def summary_line(result: ScanResult) -> str:
    if not result.findings:
        return (f"{TOOL_NAME}: clean ({result.files_scanned} files, "
                f"backend={result.backend})")
    errors = len(result.errors)
    warnings = len(result.findings) - errors
    detail = f"{errors} error(s)"
    if warnings:
        detail += f", {warnings} warning(s)"
    return (f"{TOOL_NAME}: {detail} in "
            f"{result.files_scanned} files (backend={result.backend})")
