"""Stylesheets: the numbers that turn sparse text into a full description.

A stylesheet holds default profiles and sizes, per-cardinality screen
positions, event durations in abstract time units, and figure heights as a
fraction of frame height per shot size.  The built-in defaults put a lone
subject at 1/2, a pair at 1/3 and 2/3, and fall back to even spacing
k/(n+1) for cardinalities missing from the table.

The file format is flat ``key = value`` text with dotted keys::

    # comment lines and blank lines are ignored
    profile = front
    size = MS
    positions.2 = 1/3, 2/3
    duration.speak = 2
    height.MS = 0.75

Values are exact rationals: integers, fractions like ``1/3``, or decimals
like ``0.75`` (parsed exactly, never through binary floating point).  A
loaded file overlays the defaults key by key.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .ast import EVENT_VERBS, Lock, Profile, ShotTransition, Size

#: Verbs with a duration: every event verb plus the two joins.
DURATION_VERBS = EVENT_VERBS + tuple(join.value for join in ShotTransition)

#: Marker verbs that may legitimately take zero time.
ZERO_OK_VERBS = (Lock.verb, ShotTransition.CUT.value)

#: Length of the closing beat that keeps every shot's last composition visible.
HOLD_DURATION = Fraction(1)


class StylesheetError(ValueError):
    """Raised for unusable stylesheets or completions that break ordering."""


@dataclass(frozen=True)
class Stylesheet:
    default_profile: Profile = Profile.FRONT
    default_size: Size = Size.MS
    positions_by_cardinality: Mapping[int, tuple[Fraction, ...]] = field(default_factory=dict)
    duration_by_verb: Mapping[str, Fraction] = field(default_factory=dict)
    figure_height_by_size: Mapping[Size, Fraction] = field(default_factory=dict)

    def positions_for(self, n: int) -> tuple[Fraction, ...]:
        """Default positions for ``n`` subjects; even spacing off the table."""
        got = self.positions_by_cardinality.get(n)
        if got is not None:
            return got
        return tuple(Fraction(k, n + 1) for k in range(1, n + 1))


DEFAULT_STYLESHEET = Stylesheet(
    default_profile=Profile.FRONT,
    default_size=Size.MS,
    positions_by_cardinality={
        1: (Fraction(1, 2),),
        2: (Fraction(1, 3), Fraction(2, 3)),
        3: (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
    },
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


def validate_stylesheet(s: Stylesheet) -> None:
    """Raise StylesheetError unless ``s`` is usable end to end."""
    for n, positions in s.positions_by_cardinality.items():
        if n < 1 or len(positions) != n:
            raise StylesheetError(f"positions.{n} must list exactly {n} values")
        if any(not (0 < p < 1) for p in positions):
            raise StylesheetError(f"positions.{n} must lie inside (0, 1)")
        if any(a >= b for a, b in zip(positions, positions[1:])):
            raise StylesheetError(f"positions.{n} must increase left to right")
    for verb, duration in s.duration_by_verb.items():
        if verb not in DURATION_VERBS:
            raise StylesheetError(f"unknown duration verb {verb!r}")
        if duration < 0:
            raise StylesheetError(f"duration.{verb} must not be negative")
        if duration == 0 and verb not in ZERO_OK_VERBS:
            raise StylesheetError(f"duration.{verb} must be positive")
    heights = s.figure_height_by_size
    for size in Size:
        if size not in heights:
            raise StylesheetError(f"height.{size.name} is missing")
        if not (0 < heights[size] <= 2):
            raise StylesheetError(f"height.{size.name} must be in (0, 2]")
    ordered = [heights[size] for size in sorted(Size)]
    if any(a <= b for a, b in zip(ordered, ordered[1:])):
        raise StylesheetError("figure heights must shrink from BCU to VLS")


def parse_stylesheet(text: str, base: Stylesheet = DEFAULT_STYLESHEET) -> Stylesheet:
    """Overlay ``key = value`` lines from ``text`` onto ``base``."""
    positions = dict(base.positions_by_cardinality)
    durations = dict(base.duration_by_verb)
    heights = dict(base.figure_height_by_size)
    profile = base.default_profile
    size = base.default_size

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
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
        elif key == "size":
            try:
                size = Size[value.upper()]
            except KeyError:
                raise StylesheetError(f"line {lineno}: unknown size {value!r}") from None
        elif key.startswith("positions."):
            n = _int_suffix(key, "positions.", lineno)
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

    sheet = Stylesheet(profile, size, positions, durations, heights)
    validate_stylesheet(sheet)
    return sheet


def load_stylesheet(path: str, base: Stylesheet = DEFAULT_STYLESHEET) -> Stylesheet:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_stylesheet(handle.read(), base)


def _int_suffix(key: str, prefix: str, lineno: int) -> int:
    try:
        return int(key[len(prefix):])
    except ValueError:
        raise StylesheetError(f"line {lineno}: bad key {key!r}") from None


def _rational(text: str, lineno: int) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise StylesheetError(f"line {lineno}: bad number {text.strip()!r}") from None
