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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from fractions import Fraction
from typing import ClassVar, Iterator, Union

from .diagnostics import Span


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

    @property
    def azimuth(self) -> int:
        """Sector center in degrees; 0 faces the camera, 90 faces frame left."""
        return _AZIMUTH[self]


_AZIMUTH = {
    Profile.FRONT: 0,
    Profile.THREE_QUARTER_LEFT: 45,
    Profile.LEFT: 90,
    Profile.THREE_QUARTER_BACK_LEFT: 135,
    Profile.BACK: 180,
    Profile.THREE_QUARTER_BACK_RIGHT: 225,
    Profile.RIGHT: 270,
    Profile.THREE_QUARTER_RIGHT: 315,
}


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


_ANCHOR_FRACTION = {
    ScreenAnchor.FAR_LEFT: Fraction(1, 6),
    ScreenAnchor.LEFT: Fraction(1, 3),
    ScreenAnchor.CENTER: Fraction(1, 2),
    ScreenAnchor.RIGHT: Fraction(2, 3),
    ScreenAnchor.FAR_RIGHT: Fraction(5, 6),
}


@dataclass(frozen=True, slots=True)
class ScreenFraction:
    """Explicit horizontal position, strictly inside the frame."""

    value: Fraction

    def __post_init__(self) -> None:
        if not (0 < self.value < 1):
            raise ValueError(f"screen fraction {self.value} not in (0, 1)")

    @property
    def fraction(self) -> Fraction:
        return self.value


ScreenPosition = Union[ScreenAnchor, ScreenFraction]


class Side(Enum):
    """Frame edge used by entrances and exits."""

    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True, slots=True)
class SubjectSpec:
    """One subject (actor or prop) as framed: name plus optional styling."""

    name: str
    profile: Profile | None = None
    screen: ScreenPosition | None = None


@dataclass(frozen=True, slots=True)
class FlatComposition:
    """Subjects sharing one staging plane, listed left to right."""

    size: Size
    subjects: tuple[SubjectSpec, ...]
    span: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "subjects", tuple(self.subjects))
        if not self.subjects:
            raise ValueError("a plane needs at least one subject")


@dataclass(frozen=True, slots=True)
class Composition:
    """Full frame content: planes ordered foreground first."""

    planes: tuple[FlatComposition, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "planes", tuple(self.planes))
        if not self.planes:
            raise ValueError("a composition needs at least one plane")

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


@dataclass(frozen=True, slots=True)
class ScreenEvent:
    """Base class for everything that can change or hold the frame.

    Each event class declares its part of the vocabulary: its surface
    ``verb`` (also its stylesheet duration key), its JSON ``tag``, its
    canonical ``phrase`` (a ``str.format`` template over its fields and
    ``verb``, where a bracketed clause shows only when its field is set),
    whether it ``drives_frame`` toward a new composition (a "to" event) or
    maintains it (a "with" event), and what it does with the ``camera``.
    ``span`` is keyword-only, so ``__match_args__`` lists the event's own
    fields in order.
    """

    verb: ClassVar[str]
    tag: ClassVar[str]
    phrase: ClassVar[str]
    drives_frame: ClassVar[bool] = False
    camera: ClassVar[CameraRole] = CameraRole.NONE
    span: Span | None = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class Lock(ScreenEvent):
    """Pin the camera; later actor movement plays against a held frame."""

    verb = tag = phrase = "lock"
    camera = CameraRole.LOCK


@dataclass(frozen=True, slots=True)
class CameraWith(ScreenEvent):
    """Camera move that keeps ``subject`` framed, tracking it until a lock
    or a "to" camera move; the subclasses name the rig."""

    phrase = "{verb} with {subject}"
    subject: SubjectSpec


class PanWith(CameraWith):
    __slots__ = ()
    verb, tag, camera = "pan", "pan-with", CameraRole.FIXED


class DollyWith(CameraWith):
    __slots__ = ()
    verb, tag, camera = "dolly", "dolly-with", CameraRole.TRAVEL


class CraneWith(CameraWith):
    __slots__ = ()
    verb, tag, camera = "crane", "crane-with", CameraRole.TRAVEL


@dataclass(frozen=True, slots=True)
class CameraTo(ScreenEvent):
    """Camera move toward the ``target`` composition; the subclasses name
    the rig."""

    phrase = "{verb} to {target}"
    drives_frame = True
    target: Composition


class PanTo(CameraTo):
    __slots__ = ()
    verb, tag, camera = "pan", "pan-to", CameraRole.FIXED


class DollyTo(CameraTo):
    __slots__ = ()
    verb, tag, camera = "dolly", "dolly-to", CameraRole.TRAVEL


class CraneTo(CameraTo):
    __slots__ = ()
    verb, tag, camera = "crane", "crane-to", CameraRole.TRAVEL


class ContinueTo(CameraTo):
    """Keep the camera travelling into a new composition."""

    __slots__ = ()
    verb, tag, camera = "continue", "continue-to", CameraRole.FIXED


@dataclass(frozen=True, slots=True)
class Speak(ScreenEvent):
    verb = tag = "speak"
    phrase = "{actor} speaks"
    actor: str


@dataclass(frozen=True, slots=True)
class React(ScreenEvent):
    verb = tag = "react"
    phrase = "{actor} reacts[ to {to}]"
    actor: str
    to: str | None = None


@dataclass(frozen=True, slots=True)
class Use(ScreenEvent):
    verb = tag = "use"
    phrase = "{actor} uses {prop}"
    actor: str
    prop: str


@dataclass(frozen=True, slots=True)
class Touch(ScreenEvent):
    verb = tag = "touch"
    phrase = "{actor} touches {prop}"
    actor: str
    prop: str


@dataclass(frozen=True, slots=True)
class Cross(ScreenEvent):
    """Actor passes in front of or behind an adjacent subject; they swap."""

    verb = tag = "cross"
    phrase = "{actor} crosses {other}"
    drives_frame = True
    actor: str
    other: str


@dataclass(frozen=True, slots=True)
class Enter(ScreenEvent):
    """Entrance from a frame edge; carries the resulting composition."""

    verb = tag = "enter"
    phrase = "{actor} enters from {side} to {target}"
    drives_frame = True
    actor: str
    side: Side
    target: Composition


@dataclass(frozen=True, slots=True)
class Exit(ScreenEvent):
    verb = tag = "exit"
    phrase = "{actor} exits {side}"
    drives_frame = True
    actor: str
    side: Side


@dataclass(frozen=True, slots=True)
class Move(ScreenEvent):
    """Actor movement that rearranges the frame into the target."""

    verb = tag = "move"
    phrase = "{actor} moves to {target}"
    drives_frame = True
    actor: str
    target: Composition


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


@dataclass(frozen=True, slots=True)
class Shot:
    initial: Composition
    events: tuple[ScreenEvent, ...] = ()
    span: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))


@dataclass(frozen=True, slots=True)
class Storyboard:
    shots: tuple[Shot, ...]
    joins: tuple[ShotTransition, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "shots", tuple(self.shots))
        object.__setattr__(self, "joins", tuple(self.joins))
        if not self.shots:
            raise ValueError("a storyboard needs at least one shot")
        if len(self.joins) != len(self.shots) - 1:
            raise ValueError(
                f"{len(self.shots)} shots need {len(self.shots) - 1} joins, "
                f"got {len(self.joins)}"
            )


# --- small structural helpers ------------------------------------------

def storyboard_compositions(sb: Storyboard) -> Iterator[Composition]:
    """Every composition written in a storyboard, each shot's opening one
    before those its events carry."""
    for shot in sb.shots:
        yield shot.initial
        for event in shot.events:
            target = getattr(event, "target", None)
            if target is not None:
                yield target


def referenced_names(event: ScreenEvent) -> list[str]:
    """Subject names an event mentions outside of embedded compositions."""
    names: list[str] = []
    for attr in ("actor", "other", "prop", "to"):
        value = getattr(event, attr, None)
        if value is not None:
            names.append(value)
    subject = getattr(event, "subject", None)
    if subject is not None:
        names.append(subject.name)
    return names


def normalize_positions(c: Composition) -> Composition:
    """Replace named anchors with their fractions; drop spans.

    Useful when comparing compositions that came from different routes
    (say, parsed text against a reconstruction from simulation state).
    """
    return Composition(
        tuple(
            FlatComposition(
                plane.size,
                tuple(
                    SubjectSpec(s.name, s.profile, ScreenFraction(s.screen.fraction))
                    if isinstance(s.screen, ScreenAnchor)
                    else s
                    for s in plane.subjects
                ),
            )
            for plane in c.planes
        )
    )

