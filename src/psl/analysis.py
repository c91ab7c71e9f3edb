"""Semantic analysis: classification, continuity, and defaulting.

Shots fall into three categories by how the camera works: no pan, dolly, or
crane at all; panning (or a continued move) from a fixed mount; or travel
on a dolly or crane.  Events split the other way, by what they do to the
frame: "to" forms drive it toward a new composition, "with" forms maintain
it while time passes.

Crossing those two axes gives the four per-interval states used by the
timeline: camera static or moving, composition holding or changing.  A
"with" camera move keeps tracking until a lock or a "to" move supersedes
it, so actor movement under tracking counts as camera-moving;
``event_states`` is the one fold of that tracking mode.

``fold_storyboard`` is the one pass over a board: it checks each
composition and folds each shot's events over its opening frame, which
yields the diagnostics and the completed frames the compiler lays out.
"""
from __future__ import annotations

from dataclasses import replace
from enum import Enum, IntEnum

from .ast import (
    CameraRole,
    Composition,
    Cross,
    Enter,
    Exit,
    FlatComposition,
    ScreenEvent,
    ScreenFraction,
    Shot,
    Storyboard,
    SubjectSpec,
    normalize_positions,
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
from .stylesheet import DEFAULT_STYLESHEET, Stylesheet, StylesheetError


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
        if e.camera is CameraRole.TRAVEL:
            return ShotCategory.COMPOSITE
        if e.camera is CameraRole.FIXED:
            category = ShotCategory.COMPLEX
    return category


def infer_target(current: Composition, e: ScreenEvent) -> Composition:
    """Composition after ``e`` applies to ``current``.

    "With" events return ``current`` unchanged.  Events that carry a
    composition return it verbatim; cross and exit derive theirs.  Raises
    ContinuityError when the event cannot apply.
    """
    if isinstance(e, Cross):
        return _apply_cross(current, e)
    if isinstance(e, Exit):
        return _apply_exit(current, e)
    if isinstance(e, Enter):
        if e.target.find(e.actor) is None:
            raise ContinuityError(
                E_TARGET_MISSING,
                f"the entrance target must include {e.actor}",
            )
        return e.target
    return getattr(e, "target", None) or current


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
    subjects[si] = replace(b, screen=a.screen)
    subjects[sj] = replace(a, screen=b.screen)
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


def event_states(events: tuple[ScreenEvent, ...]) -> list[StateId]:
    """Each event's StateId, then the state of the shot's closing hold.

    Folds the camera tracking mode left to right: a "with" camera move
    starts tracking, a lock or a "to" camera move ends it, and actor
    events run with the camera moving exactly while it tracks.
    """
    states: list[StateId] = []
    tracking = False
    for e in events:
        moving = tracking
        if e.camera is not CameraRole.NONE:
            moving = e.camera is not CameraRole.LOCK
            tracking = moving and not e.drives_frame
        states.append(StateId(1 + 2 * moving + e.drives_frame))
    states.append(StateId(1 + 2 * tracking))
    return states


# --- stylesheet application --------------------------------------------

def apply_stylesheet(c: Composition, s: Stylesheet = DEFAULT_STYLESHEET) -> Composition:
    """Fill in missing profiles and positions; never touch explicit ones.

    Positions come from the stylesheet row for the plane's cardinality, at
    the indices of the unspecified subjects.  Raises StylesheetError when
    the completed plane is not strictly left to right (a defaulted value
    colliding with an explicit one).  Idempotent.
    """
    return Composition(tuple(_complete_plane(plane, s) for plane in c.planes))


def _complete_plane(plane: FlatComposition, s: Stylesheet) -> FlatComposition:
    defaults = s.positions_for(len(plane.subjects))
    subjects = tuple(
        SubjectSpec(
            subject.name,
            subject.profile if subject.profile is not None else s.default_profile,
            subject.screen if subject.screen is not None else ScreenFraction(defaults[index]),
        )
        for index, subject in enumerate(plane.subjects)
    )
    fractions = [subject.screen.fraction for subject in subjects]
    if any(a >= b for a, b in zip(fractions, fractions[1:])):
        raise StylesheetError(
            "completed positions are not strictly left to right: "
            + ", ".join(str(f) for f in fractions)
        )
    return FlatComposition(plane.size, subjects, span=plane.span)


# --- the shared pass: validate and fold ---------------------------------

_FALLBACK_SPAN = Span(0, 0)


def fold_storyboard(
    sb: Storyboard, s: Stylesheet = DEFAULT_STYLESHEET
) -> tuple[list[Diagnostic], list[list[Composition]]]:
    """Validate ``sb`` and fold each shot's frames, in one pass.

    Returns the diagnostics, in a fixed order, and each shot's frames as
    ``fold_shot`` gives them; the frames are only meaningful when no
    diagnostic is an error.
    """
    diagnostics: list[Diagnostic] = []
    frames_by_shot = []
    for shot in sb.shots:
        found, frames = fold_shot(shot, s)
        diagnostics += found
        frames_by_shot.append(frames)
    for join in sb.joins:
        if join.value not in s.duration_by_verb:
            diagnostics.append(_no_duration(_FALLBACK_SPAN, join.value))
    return diagnostics, frames_by_shot


def validate(sb: Storyboard, s: Stylesheet = DEFAULT_STYLESHEET) -> list[Diagnostic]:
    """Check a parsed storyboard; orderly, deterministic diagnostics."""
    return fold_storyboard(sb, s)[0]


def fold_shot(
    shot: Shot, s: Stylesheet = DEFAULT_STYLESHEET
) -> tuple[list[Diagnostic], list[Composition]]:
    """Check one shot and fold its events over its opening frame.

    Composition shape comes first in the report (duplicates, ordering,
    defaulting clashes), then continuity, then missing durations.  An
    event that fails is reported and skipped, so one mistake does not
    cascade.  The frames are the opening frame and the frame after each
    event, completed by the stylesheet with named anchors replaced by
    their fractions.
    """
    fallback = _span_of(shot)
    shape: list[Diagnostic] = []
    continuity: list[Diagnostic] = []
    timing: list[Diagnostic] = []
    frame = _complete(shot.initial, s, fallback, shape)
    frames = [frame]
    lock_at: int | None = None
    lock_used = True
    for index, e in enumerate(shot.events):
        target = getattr(e, "target", None)
        if target is not None:
            target = _complete(target, s, fallback, shape)
        if e.camera is not CameraRole.NONE and not lock_used:
            continuity.append(_lock_warning(shot, lock_at))
        if e.camera is CameraRole.LOCK:
            lock_at, lock_used = index, False
        else:
            lock_used = True  # a camera move or any actor action consumes the lock
        frame = _apply_checked(frame, e, target, continuity)
        frames.append(frame)
        if e.verb not in s.duration_by_verb:
            timing.append(_no_duration(_span_of(e), e.verb))
    if not lock_used:
        continuity.append(_lock_warning(shot, lock_at))
    return shape + continuity + timing, frames


def _span_of(node) -> Span:
    span = getattr(node, "span", None)
    return span if span is not None else _FALLBACK_SPAN


def _complete(
    comp: Composition, s: Stylesheet, fallback: Span, diagnostics: list[Diagnostic]
) -> Composition:
    """Check a written composition and complete it from the stylesheet.

    Returns ``comp`` itself when some plane cannot be completed; that
    problem is reported, and the fold goes on by subject names alone.
    """
    seen: set[str] = set()
    planes = []
    for plane in comp.planes:
        span = plane.span if plane.span is not None else fallback
        for subject in plane.subjects:
            if subject.name in seen:
                diagnostics.append(
                    error(E_DUPLICATE, span, f"{subject.name} appears twice in one composition")
                )
            seen.add(subject.name)
        explicit = [sub.screen.fraction for sub in plane.subjects if sub.screen is not None]
        if any(a >= b for a, b in zip(explicit, explicit[1:])):
            diagnostics.append(
                error(E_ORDERING, span, "explicit positions must increase left to right")
            )
            continue  # the defaulting check would only repeat the complaint
        try:
            planes.append(_complete_plane(plane, s))
        except StylesheetError:
            diagnostics.append(
                error(
                    E_POSITION_CLASH,
                    span,
                    "default positions collide with the explicit ones; "
                    "spell out every position in this plane",
                )
            )
    if len(planes) < len(comp.planes):
        return comp
    return normalize_positions(Composition(tuple(planes)))


def _apply_checked(
    frame: Composition, e: ScreenEvent, target: Composition | None,
    diagnostics: list[Diagnostic],
) -> Composition:
    """Frame after ``e``: ``target`` when it carries one, else inferred.

    Returns ``frame`` unchanged when ``e`` cannot apply, and reports why.
    """
    span = _span_of(e)
    on_screen = set(frame.subject_names())
    if isinstance(e, Enter):
        if e.actor in on_screen:
            diagnostics.append(error(E_ENTER_ON_SCREEN, span, f"{e.actor} is already on screen"))
            return frame
    else:
        missing = [name for name in referenced_names(e) if name not in on_screen]
        if missing and not isinstance(e, (Cross, Exit)):
            diagnostics.append(error(E_OFFSCREEN, span, f"{missing[0]} is not on screen"))
            return frame
    try:
        after = infer_target(frame, e)
    except ContinuityError as failure:
        diagnostics.append(error(failure.code, span, failure.message))
        return frame
    if target is None:
        return after
    dropped = sorted(on_screen - set(target.subject_names()))
    if dropped:
        diagnostics.append(
            warning(W_DROPPED, span, f"target drops {', '.join(dropped)} without an exit")
        )
    return target


def _no_duration(span: Span, verb: str) -> Diagnostic:
    return warning(
        W_NO_DURATION, span, f"stylesheet has no duration for {verb!r}; 1 unit will be assumed"
    )


def _lock_warning(shot: Shot, lock_at: int | None) -> Diagnostic:
    e = shot.events[lock_at] if lock_at is not None else shot
    return warning(W_LOCK_UNUSED, _span_of(e), "lock with no actor action in its scope")
