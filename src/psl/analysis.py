"""Semantic analysis: classification, continuity, and defaulting.

Shots fall into three categories by how the camera works: no pan, dolly, or
crane at all; panning (or a continued move) from a fixed mount; or travel
on a dolly or crane.  Events split the other way, by what they do to the
frame: "to" forms drive it toward a new composition, "with" forms maintain
it while time passes.

Crossing those two axes gives the four per-interval states used by the
timeline: camera static or moving, composition holding or changing.  A
"with" camera move keeps tracking until a lock or a "to" move supersedes
it, so actor movement under tracking counts as camera-moving.

``fold_storyboard`` is the one pass over a board: it checks each
composition and folds each shot's events over its opening frame, which
yields the diagnostics, the completed frames and each step's state;
``fold_shot`` folds the camera roles once, for lock scope and tracking.
``infer_target`` holds every continuity rule of an event step, who is
on screen included; the fold reports what it raises.
Each plane is checked and completed in one pass over its subjects, from
shared positions: a default row is built once per board (an even one of
up to 8 subjects once per process), and each named anchor has one fraction.
A stylesheet is checked when it is built, so every default row fits.
"""
from __future__ import annotations

from enum import Enum, IntEnum

from .ast import (
    CameraRole,
    Composition,
    Cross,
    Enter,
    Exit,
    FlatComposition,
    ScreenAnchor,
    ScreenEvent,
    ScreenFraction,
    Shot,
    Storyboard,
    SubjectSpec,
    referenced_names,
)
from .diagnostics import (
    Diagnostic,
    E_BAD_CROSS,
    E_DUPLICATE,
    E_ENTER_ON_SCREEN,
    E_EXIT_ABSENT,
    E_EXIT_EMPTIES,
    E_OFFSCREEN,
    E_ORDERING,
    E_POSITION_CLASH,
    E_TARGET_MISSING,
    Span,
    W_DROPPED,
    W_LOCK_UNUSED,
    W_NO_DURATION,
    error,
    warning,
)
from .stylesheet import DEFAULT_STYLESHEET, Stylesheet


class ShotCategory(Enum):
    SIMPLE = "Simple"        # camera neither moves nor turns
    COMPLEX = "Complex"      # pan (or continued move) from a fixed mount
    COMPOSITE = "Composite"  # dolly or crane travel


class StateId(IntEnum):
    """Four per-interval states: camera x composition, numbered
    ``1 + 2 * moving + changing``."""

    STATIC_HOLD = 1     # camera still, composition holding
    STATIC_CHANGE = 2   # camera still, actors rearrange the frame
    MOVING_HOLD = 3     # camera travels, composition maintained
    MOVING_CHANGE = 4   # camera travels toward a new composition


#: Each StateId at index ``value - 1``, and the camera roles the fold tests:
#: plain lookups, where calling the enum would search its members and reading
#: a member off its class goes through the metaclass's ``__getattr__`` hook.
_STATES = tuple(StateId)
_NO_CAMERA, _LOCK = CameraRole.NONE, CameraRole.LOCK
_TRAVEL, _FIXED = CameraRole.TRAVEL, CameraRole.FIXED


class ContinuityError(ValueError):
    """An event that cannot apply to the current composition."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def classify_shot(shot: Shot) -> ShotCategory:
    """Category from the strongest camera move anywhere in the shot."""
    category = ShotCategory.SIMPLE
    for e in shot.events:
        if e.camera is _TRAVEL:
            return ShotCategory.COMPOSITE
        if e.camera is _FIXED:
            category = ShotCategory.COMPLEX
    return category


def infer_target(current: Composition, e: ScreenEvent) -> Composition:
    """Composition after ``e`` applies to ``current``.

    "With" events return ``current`` unchanged.  Events that carry a
    composition return it verbatim; cross and exit derive theirs.  Raises
    ContinuityError when the event cannot apply, with its code: E101 for
    a subject not on screen, E103 for an entrance of one that is, and
    E104, E105, E107 or E109.
    """
    if isinstance(e, Cross):
        return _apply_cross(current, e)
    if isinstance(e, Exit):
        return _apply_exit(current, e)
    if isinstance(e, Enter):
        if current.find(e.actor) is not None:
            raise ContinuityError(E_ENTER_ON_SCREEN, f"{e.actor} is already on screen")
        if e.target.find(e.actor) is None:
            raise ContinuityError(E_TARGET_MISSING, f"the entrance target must include {e.actor}")
        return e.target
    for name in referenced_names(e):
        if current.find(name) is None:
            raise ContinuityError(E_OFFSCREEN, f"{name} is not on screen")
    return e.target or current


def _apply_cross(current: Composition, e: Cross) -> Composition:
    if e.actor == e.other:
        raise ContinuityError(E_BAD_CROSS, f"{e.actor} cannot cross itself")
    at = current.find(e.actor)
    other_at = current.find(e.other)
    if at is None or other_at is None:
        missing = e.actor if at is None else e.other
        raise ContinuityError(E_BAD_CROSS, f"cannot cross: {missing} is not on screen")
    if at[0] != other_at[0] or abs(at[1] - other_at[1]) != 1:
        raise ContinuityError(
            E_BAD_CROSS,
            f"{e.actor} and {e.other} are not adjacent in the same plane",
        )
    pi, si = at
    _, sj = other_at
    plane = current.planes[pi]
    subjects = list(plane.subjects)
    a, b = subjects[si], subjects[sj]
    # Swap places and screen positions; profiles travel with their owners.
    subjects[si] = SubjectSpec(b.name, b.profile, a.screen)
    subjects[sj] = SubjectSpec(a.name, a.profile, b.screen)
    planes = list(current.planes)
    planes[pi] = FlatComposition(plane.size, tuple(subjects), span=plane.span)
    return Composition(tuple(planes))


def _apply_exit(current: Composition, e: Exit) -> Composition:
    at = current.find(e.actor)
    if at is None:
        raise ContinuityError(E_EXIT_ABSENT, f"{e.actor} is not on screen to exit")
    pi, si = at
    plane = current.planes[pi]
    rest = plane.subjects[:si] + plane.subjects[si + 1:]
    planes = list(current.planes)
    if rest:
        planes[pi] = FlatComposition(plane.size, rest, span=plane.span)
    else:
        del planes[pi]  # drop the plane entirely once emptied
    if not planes:
        raise ContinuityError(E_EXIT_EMPTIES, f"{e.actor} leaving would empty the frame")
    return Composition(tuple(planes))


# --- the shared pass: validate and fold ---------------------------------

_FALLBACK_SPAN = Span(0, 0)

#: The one position each named anchor folds to, shared by every frame.
_ANCHOR_SCREEN = {anchor: ScreenFraction(anchor.fraction) for anchor in ScreenAnchor}
#: Even-spacing rows of up to 8 subjects, by count, built on first use for every call.
_EVEN_ROWS: dict[int, tuple[ScreenFraction, ...]] = {}


def fold_storyboard(
    sb: Storyboard, s: Stylesheet = DEFAULT_STYLESHEET
) -> tuple[list[Diagnostic], list[list[Composition]], list[list[StateId]]]:
    """Validate ``sb`` and fold each shot's frames and states, in one pass.

    Returns the diagnostics, in a fixed order, and each shot's frames and
    states as ``fold_shot`` gives them; the frames are only meaningful
    when no diagnostic is an error.
    """
    diagnostics: list[Diagnostic] = []
    frames_by_shot, states_by_shot = [], []
    rows: dict[int, list[ScreenFraction]] = {}
    for shot in sb.shots:
        found, frames, states = fold_shot(shot, s, rows)
        diagnostics += found
        frames_by_shot.append(frames)
        states_by_shot.append(states)
    for join in sb.joins:
        if join.value not in s.duration_by_verb:
            diagnostics.append(_no_duration(_FALLBACK_SPAN, join.value))
    return diagnostics, frames_by_shot, states_by_shot


def validate(sb: Storyboard, s: Stylesheet = DEFAULT_STYLESHEET) -> list[Diagnostic]:
    """Check a parsed storyboard; orderly, deterministic diagnostics."""
    return fold_storyboard(sb, s)[0]


def fold_shot(
    shot: Shot, s: Stylesheet = DEFAULT_STYLESHEET, rows: dict | None = None
) -> tuple[list[Diagnostic], list[Composition], list[StateId]]:
    """Check one shot and fold its events over its opening frame.

    Composition shape comes first in the report (duplicates, ordering,
    defaulting clashes), then continuity, then missing durations.  An
    event that fails is reported and skipped, so one mistake does not
    cascade.  The frames are the opening frame and the frame after each
    event, completed by the stylesheet with named anchors replaced by
    their fractions.  The states are each event's StateId, then the
    closing hold's: a "with" camera move starts tracking, a lock or a
    "to" one ends it, and an actor event moves the camera while it
    tracks.  ``rows`` holds the rows of ``s`` built so far, by
    cardinality, save the even ones of up to 8 subjects that every call shares.
    """
    rows = {} if rows is None else rows
    fallback = _span_of(shot)
    shape: list[Diagnostic] = []
    continuity: list[Diagnostic] = []
    timing: list[Diagnostic] = []
    frame = _complete(shot.initial, s, rows, fallback, shape)
    frames = [frame]
    states: list[StateId] = []
    lock_at: int | None = None  # a lock that no later event has consumed yet
    tracking = False
    for index, e in enumerate(shot.events):
        target = e.target
        if target is not None:
            target = _complete(target, s, rows, fallback, shape)
        camera, moving = e.camera, tracking
        if camera is not _NO_CAMERA:
            if lock_at is not None:
                continuity.append(_lock_warning(shot, lock_at))
            moving = camera is not _LOCK
            tracking = moving and not e.drives_frame
        # A camera move or any actor action consumes the lock.
        lock_at = index if camera is _LOCK else None
        states.append(_STATES[2 * moving + e.drives_frame])
        frame = _apply_checked(frame, e, target, continuity)
        frames.append(frame)
        if e.verb not in s.duration_by_verb:
            timing.append(_no_duration(_span_of(e), e.verb))
    if lock_at is not None:
        continuity.append(_lock_warning(shot, lock_at))
    states.append(_STATES[2 * tracking])
    return shape + continuity + timing, frames, states


def _span_of(node: Shot | ScreenEvent) -> Span:
    return node.span or _FALLBACK_SPAN


def _complete(
    comp: Composition, s: Stylesheet, rows: dict, fallback: Span, diagnostics: list[Diagnostic]
) -> Composition:
    """Check a written composition and complete it from the stylesheet.

    One pass over each plane checks it and rebuilds it without its span:
    a subject with profile and position set is kept as it is, a missing
    position comes from a memoized row (``rows``, ``_EVEN_ROWS``), and a
    named anchor becomes its shared fraction.  Every row of a ``Stylesheet``
    was checked when it was built, so only the written positions can fail.
    Returns ``comp`` itself when some plane cannot be completed; that
    problem is reported, and the fold goes on by subject names alone.
    """
    seen: set[str] = set()
    profile = s.default_profile
    planes = []
    for plane in comp.planes:
        span = plane.span if plane.span is not None else fallback
        subjects = plane.subjects
        n = len(subjects)
        table = rows if n > 8 or n in s.positions_by_cardinality else _EVEN_ROWS
        row = table.get(n) or table.setdefault(n, tuple(ScreenFraction(p) for p in s.positions_for(n)))
        completed = []
        explicit = last = None  # the last explicit position, the last completed one
        misordered = clash = False
        for index, subject in enumerate(subjects):
            name = subject.name
            if name in seen:
                diagnostics.append(
                    error(E_DUPLICATE, span, f"{name} appears twice in one composition"))
            seen.add(name)
            screen = subject.screen
            if screen is None:
                screen = row[index]
            else:
                if screen.__class__ is ScreenAnchor:
                    screen = _ANCHOR_SCREEN[screen]
                misordered = misordered or _at_or_after(explicit, screen.value)
                explicit = screen.value
            if screen is not subject.screen or subject.profile is None:
                subject = SubjectSpec(
                    name, profile if subject.profile is None else subject.profile, screen)
            completed.append(subject)
            clash = clash or _at_or_after(last, screen.value)
            last = screen.value
        if misordered:  # the defaulting check would only repeat the complaint
            diagnostics.append(
                error(E_ORDERING, span, "explicit positions must increase left to right"))
        elif clash:
            diagnostics.append(error(E_POSITION_CLASH, span, "default positions collide with the "
                                     "explicit ones; spell out every position in this plane"))
        else:
            planes.append(FlatComposition(plane.size, tuple(completed)))
    if len(planes) < len(comp.planes):
        return comp
    return Composition(tuple(planes))


def _at_or_after(a, b) -> bool:
    """``a >= b`` by integer cross-products, and False with no ``a``."""
    return a is not None and a.numerator * b.denominator >= b.numerator * a.denominator


def _apply_checked(
    frame: Composition, e: ScreenEvent, target: Composition | None,
    diagnostics: list[Diagnostic],
) -> Composition:
    """Frame after ``e``: ``target`` when it carries one, else inferred.

    Returns ``frame`` unchanged when ``e`` cannot apply, and reports why;
    warns when ``target`` drops a subject without an exit.
    """
    try:
        after = infer_target(frame, e)
    except ContinuityError as failure:
        diagnostics.append(error(failure.code, _span_of(e), failure.message))
        return frame
    if target is None:
        return after
    dropped = sorted(set(frame.subject_names()) - set(target.subject_names()))
    if dropped:
        diagnostics.append(
            warning(W_DROPPED, _span_of(e), f"target drops {', '.join(dropped)} without an exit")
        )
    return target


def _no_duration(span: Span, verb: str) -> Diagnostic:
    return warning(
        W_NO_DURATION, span, f"stylesheet has no duration for {verb!r}; 1 unit will be assumed"
    )


def _lock_warning(shot: Shot, lock_at: int) -> Diagnostic:
    return warning(
        W_LOCK_UNUSED, _span_of(shot.events[lock_at]), "lock with no actor action in its scope")
