"""Parse the two X-macro registries in src/obs/.

* ``HISTEST_OBS_NAMES(X)`` in names.h lists every metric and span name as
  ``X(ident, "name", kind, "description")``.
* ``HISTEST_MANIFEST_FIELDS(X)`` in manifest.h lists the RunManifest JSON
  keys as ``X(key, "description")``, in the order RunManifest::ToJson emits
  them; the adjacent ``kManifestVersion`` constant is parsed too, so
  readers can refuse manifests from a newer schema instead of guessing.

Python tooling (histest-trace, trace_gate.py, obs_diff.py,
gen_design_tables.py) reads both here, with no second copy to drift.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

OBS_DIR = Path(__file__).resolve().parent.parent / "src" / "obs"
NAMES_HEADER = OBS_DIR / "names.h"
MANIFEST_HEADER = OBS_DIR / "manifest.h"

VALID_KINDS = ("counter", "gauge", "span")


@dataclass(frozen=True)
class ObsName:
    ident: str          # C++ constant, e.g. "kPoolRuns"
    name: str           # wire name, e.g. "histest.pool.runs"
    kind: str           # counter | gauge | span
    description: str


@dataclass(frozen=True)
class ManifestField:
    key: str            # JSON key, e.g. "git_describe"
    description: str


class ParseError(Exception):
    pass


def _macro_body(text: str, macro: str) -> str:
    """Returns the (backslash-continued) body of a #define, with block
    comments (the section banners inside an X-macro list) stripped."""
    m = re.search(rf"#define\s+{re.escape(macro)}\s*\([^)]*\)(.*)", text)
    if m is None:
        raise ParseError(f"missing #define {macro}")
    lines = []
    for line in text[m.start(1):].splitlines():
        stripped = line.rstrip()
        if not stripped.endswith("\\"):
            lines.append(stripped)
            break
        lines.append(stripped[:-1])
    return re.sub(r"/\*.*?\*/", "", "\n".join(lines), flags=re.S)


def load_names(path: Path | str = NAMES_HEADER) -> dict:
    """Parses names.h. Returns a dict with:

      entries: list[ObsName]          — the registry entries, in header order
      all_names: dict[str, ObsName]   — wire name -> entry
    """
    body = _macro_body(Path(path).read_text(encoding="utf-8"),
                       "HISTEST_OBS_NAMES")
    pat = re.compile(
        r'X\s*\(\s*(\w+)\s*,\s*"([^"]*)"\s*,\s*(\w+)\s*,\s*"((?:[^"\\]|\\.)*)"\s*\)',
        re.S)
    entries = []
    all_names: dict[str, ObsName] = {}
    for m in pat.finditer(body):
        e = ObsName(*m.groups())
        if e.kind not in VALID_KINDS:
            raise ParseError(f"{e.ident}: unknown kind {e.kind!r}")
        if e.name in all_names:
            raise ParseError(f"duplicate name {e.name!r} in registry")
        entries.append(e)
        all_names[e.name] = e
    if not entries:
        raise ParseError("no X(...) entries parsed from HISTEST_OBS_NAMES")
    return {"entries": entries, "all_names": all_names}


def known_names(path: Path | str = NAMES_HEADER) -> "set[str]":
    """The full set of wire names (counters, gauges, spans)."""
    return set(load_names(path)["all_names"])


def _join_literals(raw: str) -> str:
    """Concatenates adjacent C string literals and unescapes them."""
    parts = re.findall(r'"((?:[^"\\]|\\.)*)"', raw)
    if not parts:
        raise ParseError(f"expected string literal(s), got {raw!r}")
    return "".join(parts).replace('\\"', '"').replace("\\\\", "\\")


def load_manifest(path: Path | str = MANIFEST_HEADER) -> dict:
    """Parses manifest.h. Returns a dict with:

      fields: list[ManifestField]   — declaration-ordered field inventory
      keys: list[str]               — just the JSON keys, same order
      version: int                  — kManifestVersion
    """
    text = Path(path).read_text(encoding="utf-8")
    body = _macro_body(text, "HISTEST_MANIFEST_FIELDS")
    fields = [ManifestField(m.group(1), _join_literals(m.group(2)))
              for m in re.finditer(
                  r"X\s*\(\s*(\w+)\s*,((?:[^()]|\([^)]*\))*)\)", body)]
    if not fields:
        raise ParseError(
            "no X(...) entries parsed from HISTEST_MANIFEST_FIELDS")
    vm = re.search(r"kManifestVersion\s*=\s*(\d+)", text)
    if vm is None:
        raise ParseError("missing kManifestVersion in manifest.h")
    return {"fields": fields, "keys": [f.key for f in fields],
            "version": int(vm.group(1))}
