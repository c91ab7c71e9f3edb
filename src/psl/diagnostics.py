"""Diagnostics shared by the lexer, the parser, and the analyzer.

Every diagnostic carries a stable code so editor integrations and tests can
match on it, plus a byte-offset span into the source text.  Codes starting
with ``E`` are errors, codes starting with ``W`` are warnings; the numeric
range distinguishes lexical/syntactic problems (``0xx``) from semantic ones
(``1xx`` errors, ``2xx`` warnings).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, slots=True)
class Span:
    """Half-open byte range ``[start, end)`` into the source text."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"bad span [{self.start}, {self.end})")


# Lexical and syntactic errors.
E_EMPTY = "E001"              # nothing to parse
E_SYNTAX = "E002"             # unexpected token
E_NUMBER_RANGE = "E003"       # fraction outside (0, 1) or zero denominator
E_BAD_CHAR = "E010"           # character outside the alphabet
E_BAD_WORD = "E011"           # hyphenated word that is not a keyword

# Semantic errors found by continuity validation.
E_OFFSCREEN = "E101"          # event references a subject that is not on screen
E_ORDERING = "E102"           # explicit positions not strictly left to right
E_ENTER_ON_SCREEN = "E103"    # entrance of a subject already on screen
E_EXIT_ABSENT = "E104"        # exit of a subject that is not on screen
E_BAD_CROSS = "E105"          # cross pair absent, identical, or not adjacent
E_DUPLICATE = "E106"          # subject named twice in one composition
E_EXIT_EMPTIES = "E107"       # exit would leave an empty frame
E_POSITION_CLASH = "E108"     # defaulted positions collide with explicit ones
E_TARGET_MISSING = "E109"     # entrance target omits the entering subject

# Warnings.
W_DROPPED = "W201"            # target composition drops subjects without exits
W_LOCK_UNUSED = "W202"        # lock with no actor action in its scope
W_NO_DURATION = "W203"        # verb missing from the stylesheet duration table


@dataclass(frozen=True, slots=True)
class Diagnostic:
    severity: Severity
    code: str
    span: Span
    message: str

    def render(self, filename: str) -> str:
        """One-line form used by the command line: ``file:offset: code message``."""
        return f"{filename}:{self.span.start}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "severity": self.severity.value,
            "code": self.code,
            "span": {"start": self.span.start, "end": self.span.end},
            "message": self.message,
        }


def error(code: str, span: Span, message: str) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, span, message)


def warning(code: str, span: Span, message: str) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, span, message)


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


def in_source_order(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    """Sorted by span start, then span end, then code: the order printed."""
    return sorted(diagnostics, key=lambda d: (d.span.start, d.span.end, d.code))
