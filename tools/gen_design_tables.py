#!/usr/bin/env python3
"""Regenerates DESIGN.md's generated tables from the src/obs/ registries.

Two tables are rendered from the X-macros that tools/obs_registry.py
parses, each between its own `<key>:begin` / `<key>:end` markers, so the
documentation cannot drift from the code:

  obs-names        the observability-name catalogue (src/obs/names.h)
  manifest-fields  the RunManifest schema (src/obs/manifest.h)

Usage:
    python3 tools/gen_design_tables.py                  # rewrite both
    python3 tools/gen_design_tables.py --check          # exit 1 when stale
    python3 tools/gen_design_tables.py --check --table obs-names
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import obs_registry  # noqa: E402


def _names_table(root):
    reg = obs_registry.load_names(root / "src" / "obs" / "names.h")
    rows = [f"| `{e.name}` | {e.kind} | `{e.ident}` | {e.description} |"
            for e in reg["entries"]]
    return ["| name | kind | constant | description |", "|---|---|---|---|",
            *rows]


def _manifest_table(root):
    reg = obs_registry.load_manifest(root / "src" / "obs" / "manifest.h")
    rows = [f"| `{f.key}` | {f.description.replace('|', chr(92) + '|')} |"
            for f in reg["fields"]]
    return [f"Schema version: **{reg['version']}** (`kManifestVersion`; "
            f"readers reject newer versions).", "",
            "| key | description |", "|---|---|", *rows]


TABLES = {"obs-names": _names_table, "manifest-fields": _manifest_table}


def splice(doc: str, key: str, table: str) -> str:
    begin = (f"<!-- {key}:begin (generated by tools/gen_design_tables.py; "
             f"do not edit by hand) -->")
    end = f"<!-- {key}:end -->"
    if begin not in doc or end not in doc:
        raise ValueError(f"{key} markers missing from DESIGN.md")
    b, e = doc.index(begin), doc.index(end)
    if e < b:
        raise ValueError(f"{key} markers out of order in DESIGN.md")
    return doc[:b + len(begin)] + "\n" + table + "\n" + doc[e:]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="verify the tables are current; exit 1 if not")
    ap.add_argument("--table", choices=sorted(TABLES), action="append",
                    help="table to render (repeatable; default: all)")
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of tools/)")
    args = ap.parse_args(argv)

    root = pathlib.Path(args.root).resolve() if args.root else \
        pathlib.Path(__file__).resolve().parents[1]
    design = root / "DESIGN.md"
    doc = updated = design.read_text()
    try:
        for key in args.table or sorted(TABLES):
            updated = splice(updated, key, "\n".join(TABLES[key](root)))
    except (obs_registry.ParseError, ValueError) as err:
        print(f"gen_design_tables: {err}", file=sys.stderr)
        return 2
    if updated == doc:
        print("gen_design_tables: DESIGN.md tables are current")
        return 0
    if args.check:
        print("gen_design_tables: DESIGN.md tables are stale; run "
              "`python3 tools/gen_design_tables.py`", file=sys.stderr)
        return 1
    design.write_text(updated)
    print(f"gen_design_tables: rewrote {design}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
