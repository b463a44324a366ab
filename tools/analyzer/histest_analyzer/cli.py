"""Command-line interface for histest-analyzer.

Exit status: 0 clean (warnings allowed), 1 unsuppressed error findings,
2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from . import TOOL_NAME, __version__
from . import engine


def _default_root() -> pathlib.Path:
    # tools/analyzer/histest_analyzer/cli.py -> repo root is three up.
    return pathlib.Path(__file__).resolve().parents[3]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Token-level contract checker for the histest codebase "
                    "(numerical safety, RNG-stream determinism, banned "
                    "tokens).")
    p.add_argument("paths", nargs="*",
                   help="files or directories to scan (default: src, "
                        "bench, tests, examples under --root)")
    p.add_argument("--root", default=None,
                   help="repository root (default: auto-detected)")
    p.add_argument("--checkers", default=None, metavar="A,B,...",
                   help="comma-separated subset of checkers to run")
    p.add_argument("--strict-suppressions", action="store_true",
                   help="treat stale-suppression findings as errors "
                        "(exit 1) instead of warnings (CI mode)")
    p.add_argument("--list-checkers", action="store_true")
    p.add_argument("--version", action="version",
                   version=f"{TOOL_NAME} {__version__}")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_checkers:
        for name, checker in sorted(engine.registry().items()):
            scope = ", ".join(checker.scopes) if checker.scopes else "all"
            print(f"{name:20s} [{scope}] {checker.description}")
        return 0

    root = pathlib.Path(args.root).resolve() if args.root \
        else _default_root()
    if not root.is_dir():
        print(f"{TOOL_NAME}: --root {root} is not a directory",
              file=sys.stderr)
        return 2

    checker_names = None
    if args.checkers:
        checker_names = [c.strip() for c in args.checkers.split(",")
                         if c.strip()]
    try:
        result = engine.run_scan(root, checker_names=checker_names,
                                 paths=args.paths or None,
                                 strict_suppressions=args.strict_suppressions)
    except ValueError as err:
        print(f"{TOOL_NAME}: {err}", file=sys.stderr)
        return 2

    sys.stdout.write(engine.render_text(result))
    # Warnings (stale suppressions outside --strict-suppressions) are
    # reported but do not fail the scan.
    return 1 if result.errors else 0


if __name__ == "__main__":
    sys.exit(main())
