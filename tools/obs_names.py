"""Parse src/obs/names.h — the single source of observability names.

The header defines one machine-readable piece, ``HISTEST_OBS_NAMES(X)``: a
flat X-macro list of ``X(ident, "name", kind, "description")`` entries.

This module parses it so Python tooling (trace_gate.py,
gen_obs_names_table.py, the analyzer's obs-name-discipline checker) shares
the exact name set the C++ emits, with no second copy to drift.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

NAMES_HEADER = Path(__file__).resolve().parent.parent / "src" / "obs" / "names.h"

VALID_KINDS = ("counter", "gauge", "span")


@dataclass(frozen=True)
class ObsName:
    ident: str          # C++ constant, e.g. "kPoolRuns"
    name: str           # wire name, e.g. "histest.pool.runs"
    kind: str           # counter | gauge | span
    description: str


class NamesParseError(Exception):
    pass


def _macro_body(text: str, macro: str) -> str:
    """Returns the full (backslash-continued) body of a #define."""
    m = re.search(rf"#define\s+{re.escape(macro)}\s*\([^)]*\)(.*)", text)
    if m is None:
        raise NamesParseError(f"missing #define {macro} in names.h")
    lines = []
    rest = text[m.end(0) - len(m.group(1)):]
    for line in rest.splitlines():
        stripped = line.rstrip()
        if stripped.endswith("\\"):
            lines.append(stripped[:-1])
        else:
            lines.append(stripped)
            break
    body = "\n".join(lines)
    # Strip block comments (the section banners inside the X-macro list).
    return re.sub(r"/\*.*?\*/", "", body, flags=re.S)


def _parse_entries(body: str) -> list[ObsName]:
    entries = []
    pat = re.compile(
        r'X\s*\(\s*(\w+)\s*,\s*"([^"]*)"\s*,\s*(\w+)\s*,\s*"((?:[^"\\]|\\.)*)"\s*\)',
        re.S)
    for m in pat.finditer(body):
        ident, name, kind, desc = m.groups()
        if kind not in VALID_KINDS:
            raise NamesParseError(f"{ident}: unknown kind {kind!r}")
        entries.append(ObsName(ident, name, kind, desc))
    if not entries:
        raise NamesParseError("no X(...) entries parsed from HISTEST_OBS_NAMES")
    return entries


def load(path: Path | str = NAMES_HEADER) -> dict:
    """Parses names.h. Returns a dict with:

      entries: list[ObsName]          — the registry entries, in header order
      all_names: dict[str, ObsName]   — wire name -> entry
    """
    text = Path(path).read_text(encoding="utf-8")
    entries = _parse_entries(_macro_body(text, "HISTEST_OBS_NAMES"))
    all_names: dict[str, ObsName] = {}
    for e in entries:
        if e.name in all_names:
            raise NamesParseError(f"duplicate name {e.name!r} in registry")
        all_names[e.name] = e
    return {"entries": entries, "all_names": all_names}


def known_names(path: Path | str = NAMES_HEADER) -> "set[str]":
    """The full set of wire names (counters, gauges, spans)."""
    return set(load(path)["all_names"])


if __name__ == "__main__":
    reg = load()
    print(f"{len(reg['entries'])} names")
