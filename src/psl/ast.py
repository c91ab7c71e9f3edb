"""Syntax tree for prose storyboards.

A storyboard is an ordered list of shots; each shot opens on a composition
(what the frame shows, foreground plane first) and carries an ordered list
of screen events (how the frame changes while the shot runs).  Everything
lives in screen space: subjects have ordinal shot sizes, eight-sector
profiles, and horizontal positions as exact rationals in (0, 1).  There are
deliberately no world coordinates anywhere in this module.

All values are immutable; helpers that "modify" a composition return a new
one.  Node equality ignores source spans, so a parsed tree compares equal
to the same tree built programmatically.

Nodes are ``diagnostics.Record`` classes, so importing this module
generates no code.  A node's fields are its ``__slots__``, which
``dataclasses.fields`` lists too, for tools that walk a tree; its
``__match_args__`` are the positional parameters of its ``__init__``, so
an event's keyword-only ``span`` stays out of them.  To change a field,
build a new node: ``SubjectSpec(s.name, s.profile, screen)``.
"""
from __future__ import annotations

from enum import Enum, IntEnum
from fractions import Fraction
from typing import ClassVar, Iterator, Union

from .diagnostics import Record, Span


class Size(IntEnum):
    """Shot sizes, ordered tightest to widest."""

    BCU = 1   # big close-up
    CU = 2    # close-up
    MCU = 3   # medium close-up
    MS = 4    # medium shot
    MLS = 5   # medium long shot
    LS = 6    # long shot
    VLS = 7   # very long shot


class Profile(Enum):
    """Facing direction, one of eight 45-degree sectors relative to camera."""

    FRONT = "front"
    THREE_QUARTER_LEFT = "3/4 left"
    LEFT = "left"
    THREE_QUARTER_BACK_LEFT = "3/4 back left"
    BACK = "back"
    THREE_QUARTER_BACK_RIGHT = "3/4 back right"
    RIGHT = "right"
    THREE_QUARTER_RIGHT = "3/4 right"

    __hash__ = object.__hash__  # members are singletons; Enum.__hash__ hashes the name in Python

    @property
    def azimuth(self) -> int:
        """Sector center in degrees; 0 faces the camera, 90 faces frame left."""
        return _AZIMUTH[self]


#: The members are listed counter-clockwise from the camera, 45 degrees apart.
_AZIMUTH = {profile: 45 * k for k, profile in enumerate(Profile)}


class ScreenAnchor(Enum):
    """Named horizontal positions with fixed fractional meanings."""

    FAR_LEFT = "far left"
    LEFT = "left"
    CENTER = "center"
    RIGHT = "right"
    FAR_RIGHT = "far right"

    @property
    def fraction(self) -> Fraction:
        return _ANCHOR_FRACTION[self]


#: The members are listed left to right, a sixth of the frame apart.
_ANCHOR_FRACTION = {anchor: Fraction(k, 6) for k, anchor in enumerate(ScreenAnchor, 1)}


class ScreenFraction(Record):
    """Explicit horizontal position, strictly inside the frame: an exact
    number, ``int`` or ``Fraction``."""

    __slots__ = ("value",)

    def __init__(self, value: Fraction) -> None:
        if not isinstance(value, (int, Fraction)):
            raise ValueError(f"screen fraction {value} is not an exact number")
        # The reduced terms answer without two Fraction comparisons.
        if not 0 < value.numerator < value.denominator:
            raise ValueError(f"screen fraction {value} not in (0, 1)")
        self._setters[0](self, value)

    @property
    def fraction(self) -> Fraction:
        return self.value


ScreenPosition = Union[ScreenAnchor, ScreenFraction]


class Side(Enum):
    """Frame edge used by entrances and exits."""

    LEFT = "left"
    RIGHT = "right"


class SubjectSpec(Record):
    """One subject (actor or prop) as framed: name plus optional styling."""

    __slots__ = ("name", "profile", "screen")

    def __init__(self, name: str, profile: Profile | None = None,
                 screen: ScreenPosition | None = None) -> None:
        set_name, set_profile, set_screen = self._setters
        set_name(self, name)
        set_profile(self, profile)
        set_screen(self, screen)


class FlatComposition(Record):
    """Subjects sharing one staging plane, listed left to right."""

    __slots__ = ("size", "subjects", "span")
    _uncompared = ("span",)

    def __init__(self, size: Size, subjects: tuple[SubjectSpec, ...],
                 span: Span | None = None) -> None:
        subjects = tuple(subjects)
        if not subjects:
            raise ValueError("a plane needs at least one subject")
        set_size, set_subjects, set_span = self._setters
        set_size(self, size)
        set_subjects(self, subjects)
        set_span(self, span)


class Composition(Record):
    """Full frame content: planes ordered foreground first."""

    __slots__ = ("planes",)

    def __init__(self, planes: tuple[FlatComposition, ...]) -> None:
        planes = tuple(planes)
        if not planes:
            raise ValueError("a composition needs at least one plane")
        self._setters[0](self, planes)

    def subject_names(self) -> list[str]:
        """Names in plane order, left to right within each plane."""
        return [s.name for plane in self.planes for s in plane.subjects]

    def find(self, name: str) -> tuple[int, int] | None:
        """(plane index, index within plane) of ``name``, or None."""
        for pi, plane in enumerate(self.planes):
            for si, subject in enumerate(plane.subjects):
                if subject.name == name:
                    return pi, si
        return None


# --- screen events -----------------------------------------------------

class CameraRole(Enum):
    """What an event does with the camera."""

    NONE = "none"      # an actor action; the camera keeps doing what it did
    LOCK = "lock"      # pins the camera
    FIXED = "fixed"    # pans, or continues a move, from a fixed mount
    TRAVEL = "travel"  # travels on a dolly or crane


class ScreenEvent(Record):
    """Base class for everything that can change or hold the frame.

    Each event class declares its part of the vocabulary: its surface
    ``verb`` (also its stylesheet duration key), its canonical ``phrase``
    (a ``str.format`` template over its fields and ``verb``, where a
    bracketed clause shows only when its field is set), whether it
    ``drives_frame`` toward a new composition (a "to" event) or maintains
    it (a "with" event), and what it does with the ``camera``.
    ``span`` is keyword-only, so ``__match_args__`` lists the event's own
    fields in order.  A field of the vocabulary that an event class does
    not have reads ``None``: its slot, where it has one, shadows these.
    """

    __slots__ = ("span",)
    _uncompared = ("span",)
    actor = other = prop = to = subject = target = None
    verb: ClassVar[str]
    phrase: ClassVar[str]
    drives_frame: ClassVar[bool] = False
    camera: ClassVar[CameraRole] = CameraRole.NONE

    def __init__(self, *, span: Span | None = None) -> None:
        self._setters[0](self, span)


class Lock(ScreenEvent):
    """Pin the camera; later actor movement plays against a held frame."""

    __slots__ = ()
    verb = phrase = "lock"
    camera = CameraRole.LOCK


class CameraWith(ScreenEvent):
    """Camera move that keeps ``subject`` framed, tracking it until a lock
    or a "to" camera move; the subclasses name the rig."""

    __slots__ = ("subject",)
    phrase = "{verb} with {subject}"

    def __init__(self, subject: SubjectSpec, *, span: Span | None = None) -> None:
        set_span, set_subject = self._setters
        set_subject(self, subject)
        set_span(self, span)


class PanWith(CameraWith):
    __slots__ = ()
    verb, camera = "pan", CameraRole.FIXED


class DollyWith(CameraWith):
    __slots__ = ()
    verb, camera = "dolly", CameraRole.TRAVEL


class CraneWith(CameraWith):
    __slots__ = ()
    verb, camera = "crane", CameraRole.TRAVEL


class CameraTo(ScreenEvent):
    """Camera move toward the ``target`` composition; the subclasses name
    the rig."""

    __slots__ = ("target",)
    phrase = "{verb} to {target}"
    drives_frame = True

    def __init__(self, target: Composition, *, span: Span | None = None) -> None:
        set_span, set_target = self._setters
        set_target(self, target)
        set_span(self, span)


class PanTo(CameraTo):
    __slots__ = ()
    verb, camera = "pan", CameraRole.FIXED


class DollyTo(CameraTo):
    __slots__ = ()
    verb, camera = "dolly", CameraRole.TRAVEL


class CraneTo(CameraTo):
    __slots__ = ()
    verb, camera = "crane", CameraRole.TRAVEL


class ContinueTo(CameraTo):
    """Keep the camera travelling into a new composition."""

    __slots__ = ()
    verb, camera = "continue", CameraRole.FIXED


class Speak(ScreenEvent):
    """Actor speaks."""

    __slots__ = ("actor",)
    verb = "speak"
    phrase = "{actor} speaks"

    def __init__(self, actor: str, *, span: Span | None = None) -> None:
        set_span, set_actor = self._setters
        set_actor(self, actor)
        set_span(self, span)


class React(ScreenEvent):
    """Actor reacts, to another subject or to nothing named."""

    __slots__ = ("actor", "to")
    verb = "react"
    phrase = "{actor} reacts[ to {to}]"

    def __init__(self, actor: str, to: str | None = None, *, span: Span | None = None) -> None:
        set_span, set_actor, set_to = self._setters
        set_actor(self, actor)
        set_to(self, to)
        set_span(self, span)


class Use(ScreenEvent):
    """Actor handles a prop."""

    __slots__ = ("actor", "prop")
    verb = "use"
    phrase = "{actor} uses {prop}"

    def __init__(self, actor: str, prop: str, *, span: Span | None = None) -> None:
        set_span, set_actor, set_prop = self._setters
        set_actor(self, actor)
        set_prop(self, prop)
        set_span(self, span)


class Touch(ScreenEvent):
    """Actor touches a prop."""

    __slots__ = ("actor", "prop")
    verb = "touch"
    phrase = "{actor} touches {prop}"

    def __init__(self, actor: str, prop: str, *, span: Span | None = None) -> None:
        set_span, set_actor, set_prop = self._setters
        set_actor(self, actor)
        set_prop(self, prop)
        set_span(self, span)


class Cross(ScreenEvent):
    """Actor passes in front of or behind an adjacent subject; they swap."""

    __slots__ = ("actor", "other")
    verb = "cross"
    phrase = "{actor} crosses {other}"
    drives_frame = True

    def __init__(self, actor: str, other: str, *, span: Span | None = None) -> None:
        set_span, set_actor, set_other = self._setters
        set_actor(self, actor)
        set_other(self, other)
        set_span(self, span)


class Enter(ScreenEvent):
    """Entrance from a frame edge; carries the resulting composition."""

    __slots__ = ("actor", "side", "target")
    verb = "enter"
    phrase = "{actor} enters from {side} to {target}"
    drives_frame = True

    def __init__(self, actor: str, side: Side, target: Composition, *,
                 span: Span | None = None) -> None:
        set_span, set_actor, set_side, set_target = self._setters
        set_actor(self, actor)
        set_side(self, side)
        set_target(self, target)
        set_span(self, span)


class Exit(ScreenEvent):
    """Exit at a frame edge."""

    __slots__ = ("actor", "side")
    verb = "exit"
    phrase = "{actor} exits {side}"
    drives_frame = True

    def __init__(self, actor: str, side: Side, *, span: Span | None = None) -> None:
        set_span, set_actor, set_side = self._setters
        set_actor(self, actor)
        set_side(self, side)
        set_span(self, span)


class Move(ScreenEvent):
    """Actor movement that rearranges the frame into the target."""

    __slots__ = ("actor", "target")
    verb = "move"
    phrase = "{actor} moves to {target}"
    drives_frame = True

    def __init__(self, actor: str, target: Composition, *, span: Span | None = None) -> None:
        set_span, set_actor, set_target = self._setters
        set_actor(self, actor)
        set_target(self, target)
        set_span(self, span)


#: Every event class, in vocabulary order.
EVENT_TYPES: tuple[type[ScreenEvent], ...] = (
    Lock, PanWith, DollyWith, CraneWith, PanTo, DollyTo, CraneTo, ContinueTo,
    Speak, React, Use, Touch, Cross, Enter, Exit, Move,
)
#: Surface verbs, each once, in vocabulary order.
EVENT_VERBS = tuple(dict.fromkeys(cls.verb for cls in EVENT_TYPES))
#: Camera moves by verb, in their "with" and their "to" form.
CAMERA_WITH = {cls.verb: cls for cls in CameraWith.__subclasses__()}
CAMERA_TO = {cls.verb: cls for cls in CameraTo.__subclasses__()}


class ShotTransition(Enum):
    """Editing join between consecutive shots."""

    CUT = "cut"
    DISSOLVE = "dissolve"


class Shot(Record):
    """An opening composition and the events that change or hold it."""

    __slots__ = ("initial", "events", "span")
    _uncompared = ("span",)

    def __init__(self, initial: Composition, events: tuple[ScreenEvent, ...] = (),
                 span: Span | None = None) -> None:
        set_initial, set_events, set_span = self._setters
        set_initial(self, initial)
        set_events(self, tuple(events))
        set_span(self, span)


class Storyboard(Record):
    """Shots in order, and the join before each shot after the first."""

    __slots__ = ("shots", "joins")

    def __init__(self, shots: tuple[Shot, ...], joins: tuple[ShotTransition, ...] = ()) -> None:
        shots = tuple(shots)
        joins = tuple(joins)
        if not shots:
            raise ValueError("a storyboard needs at least one shot")
        if len(joins) != len(shots) - 1:
            raise ValueError(f"{len(shots)} shots need {len(shots) - 1} joins, got {len(joins)}")
        set_shots, set_joins = self._setters
        set_shots(self, shots)
        set_joins(self, joins)


# --- small structural helpers ------------------------------------------

def storyboard_compositions(sb: Storyboard) -> Iterator[Composition]:
    """Every composition written in a storyboard, each shot's opening one
    before those its events carry."""
    for shot in sb.shots:
        yield shot.initial
        for event in shot.events:
            if event.target is not None:
                yield event.target


def referenced_names(event: ScreenEvent) -> list[str]:
    """Subject names an event mentions outside of embedded compositions."""
    names = [name for name in (event.actor, event.other, event.prop, event.to) if name is not None]
    if event.subject is not None:
        names.append(event.subject.name)
    return names
