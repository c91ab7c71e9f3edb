"""Lexer for prose storyboard text.

One compiled scanner lexes the whole source in a single pass.  Each match
is a run of blanks (space, tab, CR, LF) and then one lexeme: a word or
punctuation mark, a number, or a run of characters outside the alphabet
(``#`` among them).  A line whose first non-blank character
(``str.isspace``) is ``#`` is a comment from there on; before the scan,
each comment becomes as many spaces, so no offset moves, and one regular
expression finds them all in linear time however many ``#`` a line holds.
A board repeats its lexemes, so each distinct spelling is classified once
per call, by one dict lookup for a keyword or punctuation mark: its kind,
its value and whether it can end a multi-word keyword.  A keyword in lower,
capitalized or upper case is classified once per process.  Keywords are
case-insensitive and subject names keep their spelling.  A word that can
end a multi-word keyword ("Cut to", "medium long shot") right after a
reserved word looks back, longest match first, over the reserved words
before it; since every word of a keyword but its last is reserved, and
no word that ends one opens or continues one, this finds the phrases
that a longest match from the first word would.

Spans are byte offsets into the UTF-8 encoding of the source, half open.
The scan counts characters; in an ASCII source those are the byte offsets,
and otherwise every token is mapped through a table of byte offsets once
at the end (a diagnostic reads the table when it is made).  ``lex``, which
the parser reads, gives each token as a plain tuple ``(kind, lexeme, start,
end, value)``; only ``tokenize`` wraps each as a ``Token``, by
``tuple.__new__``.  Concatenating token lexemes plus the skipped gaps
(whitespace, comments, characters reported as errors) reproduces the
source exactly.
"""
from __future__ import annotations

import re
import sys
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

    __hash__ = object.__hash__  # members are singletons; Enum.__hash__ hashes the name in Python


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

# Lowercased word or punctuation -> (kind, value, whether it can end a
# phrase).  Words that only occur inside phrases are reserved so they cannot
# be names; size spellings (abbreviations plus the hyphenated long form) win
# over both.
_WORDS: dict[str, tuple[TokenKind, object, bool]] = {
    word: (*hit, word in _PHRASE_ENDS)
    for word, hit in (
        {word: (TokenKind.RESERVED, None) for phrase in _PHRASES for word in phrase}
        | {kind.value: (kind, None) for kind in TokenKind if kind.value.isalpha() or kind.value in ",."}
        | {size.name.lower(): (TokenKind.SIZE, size) for size in Size}
        | {"close-up": (TokenKind.SIZE, Size.CU)}
    ).items()
}

# Each keyword in lower, capitalized and upper case; a call's ``seen`` starts from a copy.
_SPELLINGS = {spelling: hit for word, hit in _WORDS.items()
              for spelling in (word, word.capitalize(), word.upper())}

_SCAN = re.compile(
    r"([ \t\r\n]*)("                                              # blanks, then one lexeme:
    r"[A-Za-z][A-Za-z0-9_]*(?:-[A-Za-z][A-Za-z0-9_]*)*|[,.]"     # a word or punctuation,
    r"|[0-9]+(?:/[0-9]+)?"                                        # a fraction or an integer,
    r"|[^ \t\r\nA-Za-z0-9,.]+)"                                   # or characters outside the alphabet
)
# A comment: from a '#' that is its line's first non-blank (``str.isspace``) to the line's end.
_COMMENT = re.compile(r"^([^\S\n]*)#[^\n]*", re.MULTILINE)


def tokenize(source: str) -> tuple[list[Token], list[Diagnostic]]:
    """Lex ``source``; bad input yields diagnostics, never an exception."""
    tokens, diagnostics, _ = lex(source)
    return list(map(tuple.__new__, repeat(Token), tokens)), diagnostics


def lex(source: str) -> tuple[list[tuple], list[Diagnostic], int]:
    """``tokenize`` with plain tuples for tokens, plus the source's length in UTF-8 bytes."""
    to_byte = _byte_offsets(source)
    tokens: list[tuple] = []
    append = tokens.append
    RESERVED = TokenKind.RESERVED  # read once: on Python 3.10 and 3.11 TokenKind.X is slow
    diagnostics: list[Diagnostic] = []
    bad_words: list[Diagnostic] = []  # reported after the other diagnostics
    # A board repeats its lexemes, so each other spelling is classified once per call.
    seen: dict[str, tuple[TokenKind | None, object, bool]] = _SPELLINGS.copy()
    floor = 0  # phrases start at tokens[floor] or later: none spans a rejected word
    pos = 0  # character index; token offsets become byte offsets at the end
    # Comments become blanks of the same length, so offsets are unchanged.
    text = _COMMENT.sub(_blank_comment, source) if "#" in source else source
    for blanks, lexeme in _SCAN.findall(text):
        start = pos + len(blanks)
        pos = start + len(lexeme)
        hit = seen.get(lexeme)
        if hit is None:
            hit = seen[lexeme] = _classify(lexeme)
        kind, value, ends = hit
        if kind is None:  # value is the error's code and message
            code, message = value
            found = error(code, Span(to_byte[start], to_byte[pos]), message)
            if code == E_BAD_WORD:
                floor = len(tokens)
                bad_words.append(found)
            else:
                diagnostics.append(found)
            continue
        if ends and len(tokens) > floor and tokens[-1][0] is RESERVED:
            key = (tokens[-1][1].lower(), lexeme.lower())
            n = 1
            if len(tokens) - 1 > floor and tokens[-2][0] is RESERVED:
                longer = (tokens[-2][1].lower(), *key)
                if longer in _PHRASES:
                    key, n = longer, 2
            phrase = _PHRASES.get(key)
            if phrase is not None:
                # the lexeme keeps what lies between the words
                start = tokens[-n][2]
                lexeme = source[start:pos]
                kind, value = phrase
                del tokens[-n:]
        append((kind, lexeme, start, pos, value))
    if not source.isascii():
        tokens = [(k, w, to_byte[s], to_byte[e], v) for k, w, s, e, v in tokens]
    return tokens, diagnostics + bad_words, to_byte[-1]


def _blank_comment(comment: re.Match) -> str:
    return comment[1] + " " * (comment.end() - comment.end(1))


def _classify(lexeme: str) -> tuple[TokenKind | None, object, bool]:
    """One lexeme's kind, value and whether it can end a phrase; an error
    has no kind, and its value is its code and message."""
    first = lexeme[0]
    if first.isascii() and (first.isalpha() or first in ",."):
        hit = _WORDS.get(lexeme.lower())
        if hit is not None:
            return hit
        if "-" in lexeme:
            return None, (E_BAD_WORD, f"{lexeme!r} is not a keyword and names cannot contain '-'"), False
        return TokenKind.IDENT, lexeme, False
    if not "0" <= first <= "9":
        return None, (E_BAD_CHAR, f"unexpected character {lexeme!r}"), False
    num, slash, den = lexeme.partition("/")
    if not slash:
        return None, (E_BAD_CHAR, f"expected a fraction like 1/3, found {lexeme!r}"), False
    try:
        return TokenKind.FRACTION, Fraction(int(num), int(den)), False
    except ZeroDivisionError:
        return None, (E_NUMBER_RANGE, "fraction denominator is zero"), False
    except ValueError:  # int() refuses more digits than this limit
        limit = sys.get_int_max_str_digits()
        return None, (E_NUMBER_RANGE, f"fraction has more than {limit} digits"), False


def _byte_offsets(source: str) -> Sequence[int]:
    """Map each character index (and the end) to its UTF-8 byte offset.

    A lone surrogate, which has no UTF-8 form, counts the three bytes that
    ``surrogatepass`` gives it (as does U+FFFD, which would replace it).
    """
    if source.isascii():
        return range(len(source) + 1)
    widths = map(len, map(str.encode, source, repeat("utf-8"), repeat("surrogatepass")))
    return list(accumulate(widths, initial=0))

