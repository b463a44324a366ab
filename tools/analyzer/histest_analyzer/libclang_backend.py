"""clang.cindex fact extraction (the libclang backend's semantic half).

Only imported after `backends.libclang_available()` has confirmed the
bindings and a loadable libclang. Produces `ClangFacts`: exact-typed
observations for the four semantic checkers, restricted to locations in
the file under analysis (the TU also parses headers; findings for a header
are produced when that header is itself scanned).

Written against the clang 14 python bindings: binary-operator opcodes are
recovered from the token stream between operand extents (the
`binary_operator` property only exists in newer bindings).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import PARALLEL_ENTRY_POINTS, RNG_DRAW_METHODS

_PARSE_ARGS = ["-std=c++20", "-x", "c++"]


@dataclass
class ClangFacts:
    parsed: bool = False
    # (line, col, callee) of discarded Status/Result call results.
    discarded_status: list = field(default_factory=list)
    # (line, col, lhs_name) of float compound-assign accumulation in loops.
    loop_float_accum: list = field(default_factory=list)
    # (line, col, fn) of std::accumulate / std::reduce references.
    std_accumulate: list = field(default_factory=list)
    # (line, col, receiver, method) of shared-Rng draws in pool lambdas.
    rng_in_parallel: list = field(default_factory=list)


def _is_float_kind(ctype) -> bool:
    from clang.cindex import TypeKind
    try:
        return ctype.get_canonical().kind in (
            TypeKind.FLOAT, TypeKind.DOUBLE, TypeKind.LONGDOUBLE,
            TypeKind.FLOAT128)
    except Exception:
        return False


def _result_is_status(ctype) -> bool:
    spelling = ctype.get_canonical().spelling
    return spelling.endswith("::Status") or spelling == "Status" or \
        "::Result<" in spelling or spelling.startswith("Result<")


def collect_facts(root, path) -> ClangFacts:
    from clang.cindex import CursorKind, Index, TranslationUnit

    facts = ClangFacts()
    index = Index.create()
    args = _PARSE_ARGS + ["-I", str(root / "src")]
    tu = index.parse(
        str(path), args=args,
        options=TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD)
    facts.parsed = True

    target = str(path)

    loop_kinds = {CursorKind.FOR_STMT, CursorKind.WHILE_STMT,
                  CursorKind.DO_STMT, CursorKind.CXX_FOR_RANGE_STMT}

    def in_target(cursor) -> bool:
        loc = cursor.location
        return loc.file is not None and str(loc.file) == target

    def walk(cursor, ancestors):
        for child in cursor.get_children():
            visit(child, ancestors + [cursor])

    def lambda_ancestor(ancestors):
        for a in reversed(ancestors):
            if a.kind == CursorKind.LAMBDA_EXPR:
                return a
        return None

    def parallel_entry(ancestors, lam):
        """Name of the parallel entry point the lambda is an argument of."""
        seen_lambda = False
        for a in reversed(ancestors):
            if a == lam:
                seen_lambda = True
                continue
            if seen_lambda and a.kind == CursorKind.CALL_EXPR and \
                    a.spelling in PARALLEL_ENTRY_POINTS:
                return a.spelling
        return None

    def visit(cursor, ancestors):
        kind = cursor.kind
        here = in_target(cursor)

        if here and kind == CursorKind.CALL_EXPR:
            parent = ancestors[-1] if ancestors else None
            if parent is not None and \
                    parent.kind == CursorKind.COMPOUND_STMT and \
                    _result_is_status(cursor.type):
                loc = cursor.location
                facts.discarded_status.append(
                    (loc.line, loc.column, cursor.spelling or "<call>"))
            ref = cursor.referenced
            if ref is not None and cursor.spelling in RNG_DRAW_METHODS:
                sem = ref.semantic_parent
                if sem is not None and sem.spelling == "Rng":
                    lam = lambda_ancestor(ancestors)
                    if lam is not None and \
                            parallel_entry(ancestors, lam) is not None:
                        recv = _receiver_decl(cursor)
                        if recv is not None and \
                                not _within(recv, lam.extent):
                            loc = cursor.location
                            facts.rng_in_parallel.append(
                                (loc.line, loc.column,
                                 recv.spelling, cursor.spelling))

        if here and kind == CursorKind.DECL_REF_EXPR and \
                cursor.spelling in ("accumulate", "reduce"):
            ref = cursor.referenced
            parent_ns = ref.semantic_parent.spelling if ref is not None \
                and ref.semantic_parent is not None else ""
            if parent_ns == "std":
                loc = cursor.location
                facts.std_accumulate.append(
                    (loc.line, loc.column, f"std::{cursor.spelling}"))

        if here and kind == CursorKind.COMPOUND_ASSIGNMENT_OPERATOR:
            kids = list(cursor.get_children())
            if kids and _is_float_kind(kids[0].type) and \
                    any(a.kind in loop_kinds for a in ancestors):
                for tok in cursor.get_tokens():
                    if tok.spelling in ("+=", "-="):
                        loc = cursor.location
                        facts.loop_float_accum.append(
                            (loc.line, loc.column,
                             kids[0].spelling or "<expr>"))
                        break

        walk(cursor, ancestors)

    def _receiver_decl(call_cursor):
        """Declaration cursor of the member call's receiver variable."""
        from clang.cindex import CursorKind as CK
        kids = list(call_cursor.get_children())
        if not kids:
            return None
        stack = [kids[0]]
        while stack:
            c = stack.pop()
            if c.kind == CK.DECL_REF_EXPR and c.referenced is not None:
                return c.referenced
            stack.extend(c.get_children())
        return None

    def _within(decl_cursor, extent) -> bool:
        loc = decl_cursor.location
        if loc.file is None or extent.start.file is None:
            return False
        if str(loc.file) != str(extent.start.file):
            return False
        return extent.start.offset <= loc.offset <= extent.end.offset

    visit(tu.cursor, [])
    return facts
