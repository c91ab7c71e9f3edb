"""Diagnostics shared by the lexer, the parser, and the analyzer.

Every diagnostic carries a stable code so editor integrations and tests can
match on it, plus a byte-offset span into the source text.  Codes starting
with ``E`` are errors, codes starting with ``W`` are warnings; the numeric
range distinguishes lexical/syntactic problems (``0xx``) from semantic ones
(``1xx`` errors, ``2xx`` warnings).
"""
from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Iterable


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


#: The members as plain names: reading one off its class goes through the metaclass.
_ERROR, _WARNING = Severity.ERROR, Severity.WARNING


class _DataclassFields:
    """A record class's ``__dataclass_fields__``: built the first time a
    tool reads it, so that ``dataclasses.fields`` walks a syntax tree
    through its nodes' fields, and then kept on that class.  Importing
    psl loads no ``dataclasses``."""

    def __get__(self, record: Record | None, cls: type[Record]) -> dict:
        from dataclasses import field, make_dataclass
        cls.__dataclass_fields__ = fields = make_dataclass(cls.__name__, [
            (name, object, field(compare=name in cls._compared)) for name in cls._fields
        ], init=False, repr=False, eq=False).__dataclass_fields__
        return fields


class Record:
    """Base of psl's immutable records, and the one place that defines a
    record's compared fields, equality, hash, repr and match arguments.

    A record lists its fields in ``__slots__``, in order, and sets them in
    its ``__init__`` through ``_setters``, each slot's own ``__set__`` in
    field order, bound once per class; assigning or deleting an attribute
    afterwards raises ``dataclasses.FrozenInstanceError``.  Every field is
    compared except those a class names in ``_uncompared`` (a syntax
    node's source ``span``).  A record equals only a record of its own
    class whose compared fields are equal; its hash is that of its one
    compared field, or else of the tuple of them, and its repr is
    ``Name(field=value, ...)`` over them.  Its ``__match_args__`` are
    the positional parameters of its ``__init__``.  Records are not
    dataclasses, but ``dataclasses.fields`` and ``is_dataclass`` still
    answer for them, through a ``__dataclass_fields__`` built the first
    time a tool reads it.
    """

    __slots__ = ()
    _uncompared: tuple[str, ...] = ()
    #: All fields and the compared ones, base class fields first; set for each subclass.
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        slots = [(base, name) for base in reversed(cls.__mro__)
                 for name in base.__dict__.get("__slots__", ())]
        cls._fields = tuple(name for _, name in slots)
        cls._setters = tuple(base.__dict__[name].__set__ for base, name in slots)
        compared = cls._compared = tuple(
            name for name in cls._fields if name not in cls._uncompared
        )
        # One C call reads the key: the compared field, or the tuple of several.
        cls._key = staticmethod(attrgetter(*compared) if compared else lambda record: ())
        init = cls.__init__.__code__
        cls.__match_args__ = init.co_varnames[1:init.co_argcount]
        cls.__dataclass_fields__ = _DataclassFields()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        """Restore the slots of a copied or unpickled record."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Span(Record):
    """Half-open byte range ``[start, end)`` into the source text."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        if start < 0 or end < start:
            raise ValueError(f"bad span [{start}, {end})")
        set_start, set_end = self._setters
        set_start(self, start)
        set_end(self, end)


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


class Diagnostic(Record):
    __slots__ = ("severity", "code", "span", "message")

    def __init__(self, severity: Severity, code: str, span: Span, message: str) -> None:
        set_severity, set_code, set_span, set_message = self._setters
        set_severity(self, severity)
        set_code(self, code)
        set_span(self, span)
        set_message(self, message)

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
    return Diagnostic(_ERROR, code, span, message)


def warning(code: str, span: Span, message: str) -> Diagnostic:
    return Diagnostic(_WARNING, code, span, message)


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity is _ERROR for d in diagnostics)


def in_source_order(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    """Sorted by span start, then span end, then code: the order printed."""
    return sorted(diagnostics, key=lambda d: (d.span.start, d.span.end, d.code))
