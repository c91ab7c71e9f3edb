"""Canonical text for storyboard trees.

One sentence per shot, single spaces, a comma before every event clause, a
period terminator, and size abbreviations.  Joins start the following line
("Cut to ...", "Dissolve to ...").  Formatting a parse of formatted text is
a fixed point, and reparsing formatted text reproduces the tree.
"""
from __future__ import annotations

import re

from .ast import (
    Composition,
    ScreenAnchor,
    ScreenEvent,
    ScreenFraction,
    Shot,
    ShotTransition,
    Side,
    Storyboard,
    SubjectSpec,
)

_JOIN_TEXT = {ShotTransition.CUT: "Cut to", ShotTransition.DISSOLVE: "Dissolve to"}


def format_storyboard(sb: Storyboard) -> str:
    lines = [format_shot(sb.shots[0])]
    for join, shot in zip(sb.joins, sb.shots[1:]):
        lines.append(f"{_JOIN_TEXT[join]} {format_shot(shot)}")
    return "\n".join(lines)


def format_shot(shot: Shot) -> str:
    parts = [format_composition(shot.initial)]
    parts.extend(format_event(e) for e in shot.events)
    return ", ".join(parts) + "."


def format_composition(c: Composition) -> str:
    return ", ".join(
        f"{plane.size.name} on {' and '.join(format_subject(s) for s in plane.subjects)}"
        for plane in c.planes
    )


def format_subject(s: SubjectSpec) -> str:
    out = s.name
    if s.profile is not None:
        out += f" {s.profile.value}"
    if isinstance(s.screen, ScreenAnchor):
        out += f" screen {s.screen.value}"
    elif isinstance(s.screen, ScreenFraction):
        out += f" at {s.screen.value}"
    return out


#: An optional clause of an event phrase and the field it shows.
_CLAUSE = re.compile(r"\[([^\]]*\{(\w+)\}[^\]]*)\]")


def format_event(e: ScreenEvent) -> str:
    """The event's phrase (see ``ScreenEvent``) filled in from its fields."""
    phrase = e.phrase
    if "[" in phrase:
        phrase = _CLAUSE.sub(lambda m: m[1] if getattr(e, m[2]) is not None else "", phrase)
    words = {name: _word(getattr(e, name)) for name in e.__match_args__}
    return phrase.format(verb=e.verb, **words)


def _word(value: object) -> object:
    if isinstance(value, Composition):
        return format_composition(value)
    if isinstance(value, SubjectSpec):
        return format_subject(value)
    if isinstance(value, Side):
        return value.value
    return value
