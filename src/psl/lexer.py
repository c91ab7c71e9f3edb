"""Lexer for prose storyboard text.

The scanner first yields raw lexemes (words, fractions, punctuation), then a
classification pass merges multi-word keywords ("Cut to", "medium long
shot") with longest match and labels the rest.  Keywords are
case-insensitive; subject names keep their spelling.  Lines whose first
non-blank character is ``#`` are comments.

Spans are byte offsets into the UTF-8 encoding of the source, half open.
Concatenating token lexemes plus the skipped gaps (whitespace, comments,
characters reported as errors) reproduces the source exactly.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .ast import Size
from .diagnostics import (
    Diagnostic,
    E_BAD_CHAR,
    E_BAD_WORD,
    E_NUMBER_RANGE,
    Span,
    error,
)

class TokenKind(Enum):
    """Token kinds; the kind of a one-word keyword has that word as value."""

    SIZE = "<size>"              # MS, "medium long shot", ...
    FRACTION = "<fraction>"      # 1/3
    IDENT = "<name>"             # subject name
    COMMA = ","
    PERIOD = "."
    ON = "on"
    AND = "and"
    TO = "to"
    WITH = "with"
    SCREEN = "screen"
    AT = "at"
    LOCK = "lock"
    PAN = "pan"
    DOLLY = "dolly"
    CRANE = "crane"
    CONTINUE_TO = "continue to"
    CUT_TO = "cut to"
    DISSOLVE_TO = "dissolve to"
    FRONT = "front"
    BACK = "back"
    LEFT = "left"
    RIGHT = "right"
    CENTER = "center"
    FAR = "far"
    FROM = "from"
    SPEAKS = "speaks"
    REACTS = "reacts"
    USES = "uses"
    TOUCHES = "touches"
    CROSSES = "crosses"
    ENTERS = "enters"
    EXITS = "exits"
    MOVES = "moves"
    RESERVED = "<reserved>"      # keyword fragment outside any phrase ("cut", "shot")


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokenKind
    lexeme: str
    start: int  # byte offset
    end: int    # byte offset, exclusive
    value: object = None  # Size for SIZE, Fraction for FRACTION

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)


_KEYWORDS = {kind.value: kind for kind in TokenKind if kind.value.isalpha()}

# Single-word size spellings (abbreviations plus the hyphenated long form).
_SIZE_WORDS = {size.name.lower(): size for size in Size} | {"close-up": Size.CU}

# Multi-word keywords, matched longest first over adjacent words.
_PHRASES: dict[tuple[str, ...], tuple[TokenKind, object]] = {
    ("cut", "to"): (TokenKind.CUT_TO, None),
    ("dissolve", "to"): (TokenKind.DISSOLVE_TO, None),
    ("continue", "to"): (TokenKind.CONTINUE_TO, None),
    ("big", "close-up"): (TokenKind.SIZE, Size.BCU),
    ("big", "close", "up"): (TokenKind.SIZE, Size.BCU),
    ("close", "up"): (TokenKind.SIZE, Size.CU),
    ("medium", "close-up"): (TokenKind.SIZE, Size.MCU),
    ("medium", "close", "up"): (TokenKind.SIZE, Size.MCU),
    ("medium", "shot"): (TokenKind.SIZE, Size.MS),
    ("medium", "long", "shot"): (TokenKind.SIZE, Size.MLS),
    ("long", "shot"): (TokenKind.SIZE, Size.LS),
    ("very", "long", "shot"): (TokenKind.SIZE, Size.VLS),
}

# Words that only occur inside phrases; reserved so they cannot be names.
_PHRASE_WORDS = {w for phrase in _PHRASES for w in phrase} - set(_KEYWORDS)

_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:-[A-Za-z][A-Za-z0-9_]*)*")
_NUMBER_RE = re.compile(r"\d+(/\d+)?")

_WORD = "word"
_FRACTION = "fraction"
_PUNCT = "punct"


def tokenize(source: str) -> tuple[list[Token], list[Diagnostic]]:
    """Lex ``source``; bad input yields diagnostics, never an exception."""
    to_byte = _byte_offsets(source)
    diagnostics: list[Diagnostic] = []
    raw: list[tuple[str, str, int, int, object]] = []  # (tag, lexeme, start, end, value)

    i = 0
    n = len(source)
    bad_start: int | None = None

    def flush_bad(upto: int) -> None:
        nonlocal bad_start
        if bad_start is not None:
            span = Span(to_byte[bad_start], to_byte[upto])
            diagnostics.append(
                error(E_BAD_CHAR, span, f"unexpected character {source[bad_start:upto]!r}")
            )
            bad_start = None

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            flush_bad(i)
            i += 1
            continue
        if ch == "#" and _at_line_start(source, i):
            flush_bad(i)
            eol = source.find("\n", i)
            i = n if eol < 0 else eol
            continue
        if ch == ",":
            flush_bad(i)
            raw.append((_PUNCT, ",", i, i + 1, TokenKind.COMMA))
            i += 1
            continue
        if ch == ".":
            flush_bad(i)
            raw.append((_PUNCT, ".", i, i + 1, TokenKind.PERIOD))
            i += 1
            continue
        m = _WORD_RE.match(source, i)
        if m:
            flush_bad(i)
            raw.append((_WORD, m.group(), i, m.end(), None))
            i = m.end()
            continue
        m = _NUMBER_RE.match(source, i)
        if m:
            flush_bad(i)
            if m.group(1) is None:
                span = Span(to_byte[i], to_byte[m.end()])
                diagnostics.append(
                    error(E_BAD_CHAR, span, f"expected a fraction like 1/3, found {m.group()!r}")
                )
            else:
                num, den = m.group().split("/")
                if int(den) == 0:
                    span = Span(to_byte[i], to_byte[m.end()])
                    diagnostics.append(error(E_NUMBER_RANGE, span, "fraction denominator is zero"))
                else:
                    raw.append((_FRACTION, m.group(), i, m.end(), Fraction(int(num), int(den))))
            i = m.end()
            continue
        if bad_start is None:
            bad_start = i
        i += 1
    flush_bad(n)

    tokens = _classify(source, raw, to_byte, diagnostics)
    return tokens, diagnostics


def _at_line_start(source: str, i: int) -> bool:
    j = source.rfind("\n", 0, i)
    return source[j + 1:i].strip() == ""


def _byte_offsets(source: str) -> list[int]:
    """Map each character index (and the end) to its UTF-8 byte offset."""
    if source.isascii():
        return list(range(len(source) + 1))
    offsets = [0]
    total = 0
    for ch in source:
        total += len(ch.encode("utf-8"))
        offsets.append(total)
    return offsets


def _classify(
    source: str,
    raw: list[tuple[str, str, int, int, object]],
    to_byte: list[int],
    diagnostics: list[Diagnostic],
) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    while i < len(raw):
        tag, lexeme, start, end, value = raw[i]
        if tag == _PUNCT:
            tokens.append(Token(value, lexeme, to_byte[start], to_byte[end]))
            i += 1
            continue
        if tag == _FRACTION:
            tokens.append(Token(TokenKind.FRACTION, lexeme, to_byte[start], to_byte[end], value))
            i += 1
            continue
        merged = False
        for width in (3, 2):
            if i + width > len(raw):
                continue
            window = raw[i:i + width]
            if any(t[0] != _WORD for t in window):
                continue
            key = tuple(t[1].lower() for t in window)
            hit = _PHRASES.get(key)
            if hit is not None:
                kind, val = hit
                last = window[-1]
                tokens.append(
                    Token(kind, source[start:last[3]], to_byte[start], to_byte[last[3]], val)
                )
                i += width
                merged = True
                break
        if merged:
            continue
        low = lexeme.lower()
        if low in _SIZE_WORDS:
            tokens.append(Token(TokenKind.SIZE, lexeme, to_byte[start], to_byte[end], _SIZE_WORDS[low]))
        elif low in _KEYWORDS:
            tokens.append(Token(_KEYWORDS[low], lexeme, to_byte[start], to_byte[end]))
        elif low in _PHRASE_WORDS:
            tokens.append(Token(TokenKind.RESERVED, lexeme, to_byte[start], to_byte[end]))
        elif "-" in lexeme:
            span = Span(to_byte[start], to_byte[end])
            diagnostics.append(
                error(E_BAD_WORD, span, f"{lexeme!r} is not a keyword and names cannot contain '-'")
            )
        else:
            tokens.append(Token(TokenKind.IDENT, lexeme, to_byte[start], to_byte[end], lexeme))
        i += 1
    return tokens
