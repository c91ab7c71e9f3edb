"""Stylesheets: the numbers that turn sparse text into a full description.

A stylesheet holds the default profile, per-cardinality screen positions,
event durations in abstract time units, and figure heights as a fraction of
frame height per shot size.  Cardinalities missing from the positions table
get even spacing k/(n+1): a lone subject at 1/2, a pair at 1/3 and 2/3.

The file format is flat ``key = value`` text with dotted keys::

    # comment lines and blank lines are ignored
    profile = front
    positions.2 = 1/4, 3/4
    duration.speak = 2
    height.MS = 0.75

Values are exact rationals in ASCII digits with an optional sign: integers,
fractions like ``1/3``, or decimals like ``0.75`` (parsed exactly, never
through binary floating point; ``1e5`` or ``1_000`` is a bad number).  The
count in a ``positions.N`` key is ASCII digits as well.  A loaded file
overlays the defaults key by key.  Only a line feed ends a line, as in a
storyboard; the whitespace around a line, a key or a value, the CR of a
CRLF included, is dropped.  A sheet built in code is checked by the same
rules when it is constructed, with the same messages.
"""
from __future__ import annotations

import re
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .ast import EVENT_VERBS, Lock, Profile, ShotTransition, Size
from .diagnostics import Record

#: Verbs with a duration: every event verb plus the two joins.
DURATION_VERBS = EVENT_VERBS + tuple(join.value for join in ShotTransition)

#: Marker verbs that may legitimately take zero time.
ZERO_OK_VERBS = (Lock.verb, ShotTransition.CUT.value)

#: Length of the closing beat that keeps every shot's last composition visible.
HOLD_DURATION = Fraction(1)


def _exact(x: object) -> bool:
    """``x`` may stand in a stylesheet: an int or a Fraction.  A float would
    break exact time, and a bool would print as "True"."""
    return isinstance(x, (int, Fraction)) and x.__class__ is not bool


class StylesheetError(ValueError):
    """Raised for unusable stylesheets."""


class Stylesheet(Record):
    """The numbers of one stylesheet, checked when it is built.

    An omitted table is empty.  Every figure height is required; a verb
    with no duration warns W203 and takes 1 unit.  Numbers are exact
    (``int`` or ``Fraction``, never ``bool``), the profile a ``Profile``,
    each count an ``int``: ``StylesheetError`` says what is wrong, as it
    does for the file form.  Each table is copied into a read-only
    mapping, each row of positions into a tuple.
    """

    __slots__ = (
        "default_profile", "positions_by_cardinality", "duration_by_verb", "figure_height_by_size"
    )

    def __init__(self, default_profile: Profile = Profile.FRONT,
                 positions_by_cardinality: Mapping[int, tuple[Fraction, ...]] | None = None,
                 duration_by_verb: Mapping[str, Fraction] | None = None,
                 figure_height_by_size: Mapping[Size, Fraction] | None = None) -> None:
        set_profile, set_positions, set_durations, set_heights = self._setters
        set_profile(self, default_profile)
        set_positions(self, MappingProxyType(
            {n: tuple(row) for n, row in (positions_by_cardinality or {}).items()}))
        set_durations(self, MappingProxyType(dict(duration_by_verb or {})))
        set_heights(self, MappingProxyType(dict(figure_height_by_size or {})))
        validate_stylesheet(self)

    def __reduce__(self):
        """Copy and pickle through ``__init__``: a read-only mapping has no pickled form."""
        return self.__class__, (self.default_profile, *map(dict, (
            self.positions_by_cardinality, self.duration_by_verb, self.figure_height_by_size)))

    def positions_for(self, n: int) -> tuple[Fraction, ...]:
        """Default positions for ``n`` subjects; even spacing off the table."""
        got = self.positions_by_cardinality.get(n)
        if got is not None:
            return got
        return tuple(Fraction(k, n + 1) for k in range(1, n + 1))


def validate_stylesheet(s: Stylesheet) -> None:
    """Raise StylesheetError unless ``s`` is usable end to end; the check
    that building a ``Stylesheet`` runs."""
    if not isinstance(s.default_profile, Profile):
        raise StylesheetError(f"profile {s.default_profile!r} is not a Profile")
    for n, positions in s.positions_by_cardinality.items():
        if n.__class__ is not int:
            raise StylesheetError(f"positions.{n!r}: the count must be an int")
        if n < 1:
            raise StylesheetError(f"positions.{n}: the count must be at least 1")
        if len(positions) != n:
            raise StylesheetError(f"positions.{n} must list exactly {n} values")
        if not all(map(_exact, positions)):
            raise StylesheetError(f"positions.{n} must be exact numbers")
        if any(not (0 < p < 1) for p in positions):
            raise StylesheetError(f"positions.{n} must lie inside (0, 1)")
        if any(a >= b for a, b in zip(positions, positions[1:])):
            raise StylesheetError(f"positions.{n} must increase left to right")
    for verb, duration in s.duration_by_verb.items():
        if verb not in DURATION_VERBS:
            raise StylesheetError(f"unknown duration verb {verb!r}")
        if not _exact(duration):
            raise StylesheetError(f"duration.{verb} must be an exact number")
        if duration < 0:
            raise StylesheetError(f"duration.{verb} must not be negative")
        if duration == 0 and verb not in ZERO_OK_VERBS:
            raise StylesheetError(f"duration.{verb} must be positive")
    heights = s.figure_height_by_size
    for size in Size:
        if size not in heights:
            raise StylesheetError(f"height.{size.name} is missing")
        if not _exact(heights[size]):
            raise StylesheetError(f"height.{size.name} must be an exact number")
        if not (0 < heights[size] <= 2):
            raise StylesheetError(f"height.{size.name} must be in (0, 2]")
    ordered = [heights[size] for size in sorted(Size)]
    if any(a <= b for a, b in zip(ordered, ordered[1:])):
        raise StylesheetError("figure heights must shrink from BCU to VLS")


DEFAULT_STYLESHEET = Stylesheet(
    duration_by_verb={
        "speak": Fraction(2),
        "react": Fraction(1),
        "move": Fraction(2),
        "cross": Fraction(2),
        "enter": Fraction(2),
        "exit": Fraction(1),
        "use": Fraction(1),
        "touch": Fraction(1),
        "pan": Fraction(2),
        "dolly": Fraction(3),
        "crane": Fraction(3),
        "continue": Fraction(3),
        "lock": Fraction(0),
        "cut": Fraction(0),
        "dissolve": Fraction(1),
    },
    figure_height_by_size={
        Size.BCU: Fraction(9, 5),    # 1.8
        Size.CU: Fraction(7, 5),     # 1.4
        Size.MCU: Fraction(1),
        Size.MS: Fraction(3, 4),     # 0.75
        Size.MLS: Fraction(11, 20),  # 0.55
        Size.LS: Fraction(7, 20),    # 0.35
        Size.VLS: Fraction(9, 50),   # 0.18
    },
)

_PROFILES_BY_TEXT = {p.value: p for p in Profile}

# The documented spellings only: an exponent would let a short value cost unbounded time.
_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]*\.[0-9]*)")
# A count is ASCII digits; a minus sign is kept so that a negative count
# gets validate_stylesheet's "at least 1" rather than "bad key".
_COUNT_RE = re.compile(r"-?[0-9]+")


def parse_stylesheet(text: str) -> Stylesheet:
    """Overlay ``key = value`` lines from ``text`` onto the defaults."""
    positions = dict(DEFAULT_STYLESHEET.positions_by_cardinality)
    durations = dict(DEFAULT_STYLESHEET.duration_by_verb)
    heights = dict(DEFAULT_STYLESHEET.figure_height_by_size)
    profile = DEFAULT_STYLESHEET.default_profile

    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise StylesheetError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "profile":
            if value not in _PROFILES_BY_TEXT:
                raise StylesheetError(f"line {lineno}: unknown profile {value!r}")
            profile = _PROFILES_BY_TEXT[value]
        elif key.startswith("positions."):
            count = key[len("positions."):]
            try:
                if not _COUNT_RE.fullmatch(count):
                    raise ValueError(count)
                n = int(count)  # also refuses more digits than int() may read
            except ValueError:
                raise StylesheetError(f"line {lineno}: bad key {key!r}") from None
            positions[n] = tuple(_rational(v, lineno) for v in value.split(","))
        elif key.startswith("duration."):
            verb = key[len("duration."):]
            durations[verb] = _rational(value, lineno)
        elif key.startswith("height."):
            name = key[len("height."):]
            try:
                heights[Size[name.upper()]] = _rational(value, lineno)
            except KeyError:
                raise StylesheetError(f"line {lineno}: unknown size {name!r}") from None
        else:
            raise StylesheetError(f"line {lineno}: unknown key {key!r}")

    return Stylesheet(profile, positions, durations, heights)


def read_text(path: str) -> str:
    """The text of the file at ``path`` as ``psl`` reads every file: opened as given, UTF-8
    less one leading byte-order mark, line endings kept.  OSError, or ValueError for a NUL
    in the path, if it cannot be read; UnicodeDecodeError if it is not UTF-8."""
    with open(path, "rb") as file:
        data = file.read()
    return (data[3:] if data.startswith(b"\xef\xbb\xbf") else data).decode("utf-8")


def load_stylesheet(path: str) -> Stylesheet:
    """Parse the file at ``path``, read as ``read_text`` reads it: OSError, or ValueError for a
    NUL in the path, if unreadable; StylesheetError if it is not UTF-8 or not a usable sheet."""
    try:
        text = read_text(path)
    except UnicodeDecodeError:
        raise StylesheetError(f"{path} is not valid UTF-8") from None
    return parse_stylesheet(text)


def _rational(text: str, lineno: int) -> Fraction:
    text = text.strip()
    if _NUMBER_RE.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):  # "1/0", ".", or too many digits
            pass
    raise StylesheetError(f"line {lineno}: bad number {text!r}")
