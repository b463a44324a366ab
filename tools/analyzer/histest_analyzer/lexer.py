"""C++ tokenizer for the internal analyzer backend.

Produces a flat token stream with source positions, plus the comment and
preprocessor side-channels the engine needs (suppression comments live in
comments; `#include <random>` detection lives in pp lines). The tokenizer is
deliberately a *lexer*, not a preprocessor: macros are not expanded, and
conditional-compilation branches are all lexed. That is the right trade for
a style checker — contracts hold in every configuration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Longest-match-first multi-character operators/punctuators.
_PUNCTUATORS = (
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "<<", ">>",
    "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=", "##",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", "<", ">", "+", "-",
    "*", "/", "%", "&", "|", "^", "!", "~", "=", "?", ":", "#",
)

_KEYWORDS = frozenset("""
    alignas alignof asm auto bool break case catch char char8_t char16_t
    char32_t class concept const consteval constexpr constinit const_cast
    continue co_await co_return co_yield decltype default delete do double
    dynamic_cast else enum explicit export extern false float for friend
    goto if inline int long mutable namespace new noexcept nullptr operator
    private protected public register reinterpret_cast requires return
    short signed sizeof static static_assert static_cast struct switch
    template this thread_local throw true try typedef typeid typename
    union unsigned using virtual void volatile wchar_t while
""".split())

_ID_START = re.compile(r"[A-Za-z_]")
_ID_CONT = re.compile(r"[A-Za-z0-9_]")

# A pp-number that is a *floating* literal: has a '.' or a decimal exponent
# (1e9) or a hex-float exponent (0x1.0p-53) or an f/F suffix on a
# dotted/exponent form. Pure integers (incl. 0x1F) stay "num".
_FLOAT_RE = re.compile(
    r"^(?:"
    r"0[xX][0-9a-fA-F']*\.?[0-9a-fA-F']*[pP][+-]?\d+"  # hex float
    r"|[0-9][0-9']*\.[0-9']*(?:[eE][+-]?\d+)?"          # 1. / 1.5 / 1.5e3
    r"|\.[0-9][0-9']*(?:[eE][+-]?\d+)?"                 # .5
    r"|[0-9][0-9']*[eE][+-]?\d+"                        # 1e9
    r")[fFlL]*$"
)


@dataclass(frozen=True)
class Token:
    kind: str  # id | kw | num | fnum | str | chr | punct
    text: str
    line: int  # 1-based
    col: int   # 1-based


@dataclass(frozen=True)
class Comment:
    text: str  # comment body, delimiters stripped
    line: int
    col: int
    block: bool


@dataclass(frozen=True)
class PpLine:
    text: str  # full directive with continuations joined
    line: int


class LexedFile:
    """Token stream plus comment / preprocessor side-channels."""

    def __init__(self, tokens, comments, pp_lines):
        self.tokens: list[Token] = tokens
        self.comments: list[Comment] = comments
        self.pp_lines: list[PpLine] = pp_lines


def lex(text: str) -> LexedFile:
    tokens: list[Token] = []
    comments: list[Comment] = []
    pp_lines: list[PpLine] = []

    i = 0
    n = len(text)
    line = 1
    line_start = 0  # offset of current line's first char

    def col(pos: int) -> int:
        return pos - line_start + 1

    def advance_lines(segment: str, end_pos: int):
        nonlocal line, line_start
        nl = segment.count("\n")
        if nl:
            line += nl
            line_start = end_pos - (len(segment) - segment.rfind("\n") - 1)

    at_line_start = True  # only whitespace seen since last newline
    while i < n:
        c = text[i]

        if c == "\n":
            line += 1
            i += 1
            line_start = i
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue

        # Preprocessor directive (only when '#' is first non-ws on the line).
        if c == "#" and at_line_start:
            start, start_line = i, line
            buf = []
            while i < n:
                j = text.find("\n", i)
                if j < 0:
                    j = n
                seg = text[i:j]
                # Line continuation?
                if seg.rstrip().endswith("\\"):
                    buf.append(seg.rstrip()[:-1])
                    advance_lines(text[i:j + 1], j + 1)
                    i = j + 1
                    line_start = i
                else:
                    buf.append(seg)
                    i = j  # leave the newline for the main loop
                    break
            pp_lines.append(PpLine(" ".join(buf), start_line))
            at_line_start = False
            continue

        at_line_start = False

        # Comments.
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                if j < 0:
                    j = n
                comments.append(Comment(text[i + 2:j], line, col(i), False))
                i = j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                if j < 0:
                    j = n
                    end = n
                else:
                    end = j + 2
                comments.append(Comment(text[i + 2:j], line, col(i), True))
                advance_lines(text[i:end], end)
                i = end
                continue

        # Raw string literal R"delim( ... )delim".
        if c == "R" and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
            if m:
                delim = m.group(1)
                close = ")" + delim + '"'
                j = text.find(close, i + m.end())
                end = (j + len(close)) if j >= 0 else n
                tokens.append(Token("str", text[i:end], line, col(i)))
                advance_lines(text[i:end], end)
                i = end
                continue

        # String / char literals (with escapes). Also covers prefixed forms
        # (u8"...", L'x') because the prefix lexes as an identifier token
        # first only when separated; glue common prefixes here.
        if c in "\"'" or (c in "uUL" and i + 1 < n and text[i + 1] in "\"'"):
            start = i
            if c not in "\"'":
                i += 1  # skip prefix
                if text[i:i + 1] == "8":
                    i += 1
                c = text[i]
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            end = min(j + 1, n)
            kind = "str" if quote == '"' else "chr"
            tokens.append(Token(kind, text[start:end], line, col(start)))
            i = end
            continue

        # Numbers (pp-number: digits, quotes, dots, exponents with signs).
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n:
                ch = text[j]
                if ch in "'.":
                    j += 1
                elif ch in "+-" and text[j - 1] in "eEpP":
                    j += 1
                elif _ID_CONT.match(ch):
                    j += 1
                else:
                    break
            word = text[i:j]
            kind = "fnum" if _FLOAT_RE.match(word) else "num"
            tokens.append(Token(kind, word, line, col(i)))
            i = j
            continue

        # Identifiers / keywords.
        if _ID_START.match(c):
            j = i + 1
            while j < n and _ID_CONT.match(text[j]):
                j += 1
            word = text[i:j]
            kind = "kw" if word in _KEYWORDS else "id"
            tokens.append(Token(kind, word, line, col(i)))
            i = j
            continue

        # Punctuators, longest match first.
        for p in _PUNCTUATORS:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line, col(i)))
                i += len(p)
                break
        else:
            # Unknown byte (e.g. stray unicode); skip it.
            i += 1

    return LexedFile(tokens, comments, pp_lines)
