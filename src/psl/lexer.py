"""Lexer for prose storyboard text.

One compiled scanner lexes each line in a single pass.  Each match is a
run of blanks (space, tab, CR) and then one lexeme: a word or punctuation
mark, a number, or a run of characters outside the alphabet (``#`` among
them).  A word is classified by one dict lookup; keywords are
case-insensitive and subject names keep their spelling.  A word that can
end a multi-word keyword ("Cut to", "medium long shot") looks back,
longest match first, over the raw words before it; since no such word
opens or continues a keyword, this finds the phrases that a longest match
from the first word would.  A line
whose first non-blank character (``str.isspace``) is ``#`` is a comment
from there on; each line is checked once, so the rule is linear however
many ``#`` a line holds.

Spans are byte offsets into the UTF-8 encoding of the source, half open.
Concatenating token lexemes plus the skipped gaps (whitespace, comments,
characters reported as errors) reproduces the source exactly.
"""
from __future__ import annotations

import re
import sys
from bisect import bisect_left
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction
from itertools import accumulate, repeat
from typing import NamedTuple

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


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    start: int  # byte offset
    end: int    # byte offset, exclusive
    value: object = None  # Size for SIZE, Fraction for FRACTION

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)


# Multi-word keywords, each merged from adjacent words at its last word, longest first.
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
_PHRASE_ENDS = frozenset(phrase[-1] for phrase in _PHRASES)

# Lowercased word or punctuation -> (kind, value).  Words that only occur
# inside phrases are reserved so they cannot be names; size spellings
# (abbreviations plus the hyphenated long form) win over both.
_WORDS: dict[str, tuple[TokenKind, object]] = (
    {word: (TokenKind.RESERVED, None) for phrase in _PHRASES for word in phrase}
    | {kind.value: (kind, None) for kind in TokenKind if kind.value.isalpha() or kind.value in ",."}
    | {size.name.lower(): (TokenKind.SIZE, size) for size in Size}
    | {"close-up": (TokenKind.SIZE, Size.CU)}
)

_SCAN = re.compile(
    r"([ \t\r]*)(?:"                                              # blanks, then one lexeme:
    r"([A-Za-z][A-Za-z0-9_]*(?:-[A-Za-z][A-Za-z0-9_]*)*|[,.])"  # a word or punctuation,
    r"|([0-9]+(?:/[0-9]+)?)"                                     # a fraction or an integer,
    r"|([^ \t\rA-Za-z0-9,.]+))"                                  # or characters outside the alphabet
)


def tokenize(source: str) -> tuple[list[Token], list[Diagnostic]]:
    """Lex ``source``; bad input yields diagnostics, never an exception."""
    tokens, diagnostics, _ = lex(source)
    return tokens, diagnostics


def lex(source: str) -> tuple[list[Token], list[Diagnostic], Sequence[int]]:
    """``tokenize``, plus the UTF-8 byte offset of each character index and of the end."""
    to_byte = _byte_offsets(source)
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    bad_words: list[Diagnostic] = []  # reported after the other diagnostics
    floor = 0  # phrases start at tokens[floor] or later: none spans a rejected word
    pos = 0
    for line in source.split("\n"):
        line_end = pos + len(line)
        rest = line.lstrip()
        if rest.startswith("#"):  # a comment line: only the blanks before '#' are lexed
            line = line[:len(line) - len(rest)]
        for blanks, word, number, bad in _SCAN.findall(line):
            start = pos + len(blanks)
            if word:
                pos = start + len(word)
                low = word.lower()
                hit = _WORDS.get(low)
                if hit is not None:
                    if low in _PHRASE_ENDS:
                        back = tokens[max(floor, len(tokens) - 2):]
                        words = [t.lexeme.lower() for t in back]
                        for n in range(len(back), 0, -1):
                            phrase = _PHRASES.get((*words[-n:], low))
                            if phrase is not None:
                                # the lexeme keeps what lies between the words
                                start = bisect_left(to_byte, back[-n].start)
                                word = source[start:pos]
                                hit = phrase
                                del tokens[-n:]
                                break
                    tokens.append(Token(hit[0], word, to_byte[start], to_byte[pos], hit[1]))
                elif "-" in word:
                    floor = len(tokens)
                    span = Span(to_byte[start], to_byte[pos])
                    message = f"{word!r} is not a keyword and names cannot contain '-'"
                    bad_words.append(error(E_BAD_WORD, span, message))
                else:
                    tokens.append(Token(TokenKind.IDENT, word, to_byte[start], to_byte[pos], word))
            elif number:
                pos = start + len(number)
                span = Span(to_byte[start], to_byte[pos])
                num, slash, den = number.partition("/")
                if not slash:
                    message = f"expected a fraction like 1/3, found {number!r}"
                    diagnostics.append(error(E_BAD_CHAR, span, message))
                    continue
                try:
                    value = Fraction(int(num), int(den))
                except ZeroDivisionError:
                    diagnostics.append(error(E_NUMBER_RANGE, span, "fraction denominator is zero"))
                except ValueError:  # int() refuses more digits than this limit
                    limit = sys.get_int_max_str_digits()
                    diagnostics.append(error(E_NUMBER_RANGE, span, f"fraction has more than {limit} digits"))
                else:
                    tokens.append(Token(TokenKind.FRACTION, number, span.start, span.end, value))
            else:
                pos = start + len(bad)
                span = Span(to_byte[start], to_byte[pos])
                diagnostics.append(error(E_BAD_CHAR, span, f"unexpected character {bad!r}"))
        pos = line_end + 1
    return tokens, diagnostics + bad_words, to_byte


def _byte_offsets(source: str) -> Sequence[int]:
    """Map each character index (and the end) to its UTF-8 byte offset.

    A lone surrogate, which has no UTF-8 form, counts the three bytes that
    ``surrogatepass`` gives it (as does U+FFFD, which would replace it).
    """
    if source.isascii():
        return range(len(source) + 1)
    widths = map(len, map(str.encode, source, repeat("utf-8"), repeat("surrogatepass")))
    return list(accumulate(widths, initial=0))

