"""Reference fold: ``psl.analysis.fold_storyboard`` as it was before each
composition was completed in one pass over shared screen positions.

Each plane is rebuilt three times here: checked by ``_complete``, filled
in by ``_complete_plane`` from a fresh row of stylesheet positions, then
rebuilt once more by ``normalize_positions`` to replace named anchors
and drop spans.  Every order check compares ``Fraction``s directly.  The
continuity checks are copied too, as they were before ``infer_target``
took over the on-screen checks (E101, E103) and the fold kept its lock
scope in one variable: ``ContinuityError``, ``infer_target``,
``_apply_cross``, ``_apply_exit``, ``_apply_checked`` and the lock
bookkeeping of ``fold_shot``.  ``event_states`` is the fold of the
camera tracking mode as it was before ``fold_shot`` took it over, in a
second walk over each shot's events.  Only the wording of the warnings
and the ``StateId`` names are imported from ``psl.analysis``.  The
differential test in ``test_fold_differential.py`` checks the fold
against it, diagnostic for diagnostic, frame for frame and state for
state.  Do not optimise it: its worth is that it is the old definition,
line for line.
"""
from __future__ import annotations

from psl.analysis import StateId, _lock_warning, _no_duration, _span_of
from psl.ast import (
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
from psl.diagnostics import (
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
    error,
    warning,
)
from psl.stylesheet import DEFAULT_STYLESHEET, Stylesheet, StylesheetError


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


# --- the four interval states: copied, save that each state is looked up
# by calling the enum rather than through the fold's table; do not optimise

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


# --- continuity: copied verbatim; do not optimise ----------------------

class ContinuityError(ValueError):
    """An event that cannot apply to the current composition."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


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
