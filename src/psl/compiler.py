"""Compile storyboards into timed Petri nets and replay them.

The net for a storyboard is a straight chain: one transition per screen
event, a closing hold before every join, and one transition per join.
Control places thread the chain so exactly one transition is enabled at
every step; each on-screen subject holds one attributed token (plane,
slot, size, profile, screen position); a camera place holds one token
whose flag says whether the camera is travelling during the interval the
current marking spans.

Transitions that change the frame retire the old subject tokens and
install the new ones, carrying the entire destination as explicit effect
tokens.  Those destinations come from ``analysis.fold_storyboard``, the
one pass that validates the board and folds each shot's events over its
opening composition, with stylesheet defaults filled in and named anchors
replaced by their fractions.  Transitions that merely maintain the frame
pass subject tokens through untouched, so simulation preserves them bit
for bit.

``timeline`` replays the unique firing sequence and returns the visible
screen state over time: which composition is up, which of the four
per-interval states applies, and whether the frame is mid-change.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Mapping

from .analysis import StateId, event_states, fold_shot, fold_storyboard
from .ast import (
    Composition,
    FlatComposition,
    ScreenEvent,
    ScreenFraction,
    Shot,
    Storyboard,
    SubjectSpec,
    referenced_names,
)
from .diagnostics import Diagnostic, Severity, has_errors
from .formatter import format_event
from .petri import (
    Marking,
    Net,
    PetriToken,
    Place,
    PlaceKind,
    Transition,
    simulate,
)
from .stylesheet import DEFAULT_STYLESHEET, HOLD_DURATION, Stylesheet


class CompileError(ValueError):
    """Storyboard rejected before net construction.

    ``diagnostics`` holds everything the validating pass found.
    """

    diagnostics: tuple[Diagnostic, ...] = ()


CAMERA_PLACE = "camera"
_SUBJECT_PREFIX = "subject:"


def subject_place(name: str) -> str:
    return _SUBJECT_PREFIX + name


def control_place(index: int) -> str:
    return f"ctrl:{index}"


@dataclass(frozen=True, slots=True)
class TransitionInfo:
    """Compile-time metadata the net itself does not need."""

    kind: str           # "event", "hold", or "join"
    shot_index: int
    state: StateId
    changes: bool       # True when the frame differs across the firing
    verb: str


@dataclass(frozen=True)
class CompiledStoryboard:
    storyboard: Storyboard
    stylesheet: Stylesheet
    net: Net
    info: Mapping[str, TransitionInfo]
    #: Frame content before transition k, plus the final frame; the
    #: marking after step k reconstructs to ``compositions[k]`` exactly.
    compositions: tuple[Composition, ...]
    #: Warnings the validating pass found (an error stops compilation).
    diagnostics: tuple[Diagnostic, ...] = ()


def _reject_errors(diagnostics: list[Diagnostic]) -> None:
    if has_errors(diagnostics):
        first = next(d for d in diagnostics if d.severity is Severity.ERROR)
        failure = CompileError(f"storyboard does not validate: {first.code} {first.message}")
        failure.diagnostics = tuple(diagnostics)
        raise failure


def shot_frames(shot: Shot, s: Stylesheet = DEFAULT_STYLESHEET) -> list[Composition]:
    """Opening frame plus the frame after each event, fully defaulted."""
    diagnostics, frames = fold_shot(shot, s)
    _reject_errors(diagnostics)
    return frames


def _subject_tokens(comp: Composition) -> dict[str, PetriToken]:
    tokens: dict[str, PetriToken] = {}
    for plane_index, plane in enumerate(comp.planes):
        for slot, subject in enumerate(plane.subjects):
            tokens[subject_place(subject.name)] = PetriToken.of(
                plane=plane_index,
                slot=slot,
                size=plane.size,
                profile=subject.profile,
                screen=subject.screen.fraction,
            )
    return tokens


def composition_of_marking(marking: Marking) -> Composition:
    """Rebuild the frame from the subject tokens; inverse of compilation."""
    rows = []
    for pid, tokens in marking.items():
        if not pid.startswith(_SUBJECT_PREFIX) or not tokens:
            continue
        if len(tokens) != 1:
            raise ValueError(f"{pid} holds {len(tokens)} tokens, expected one")
        token = tokens[0]
        rows.append((token.get("plane"), token.get("slot"), pid[len(_SUBJECT_PREFIX):], token))
    if not rows:
        raise ValueError("no subject tokens in marking")
    rows.sort(key=lambda row: (row[0], row[1]))
    planes: list[FlatComposition] = []
    for plane_index, group in groupby(rows, key=lambda row: row[0]):
        members = list(group)
        if plane_index != len(planes):
            raise ValueError("plane indices are not contiguous")
        sizes = {member[3].get("size") for member in members}
        if len(sizes) != 1:
            raise ValueError(f"plane {plane_index} tokens disagree on size")
        if [member[1] for member in members] != list(range(len(members))):
            raise ValueError(f"plane {plane_index} slots are not contiguous")
        planes.append(
            FlatComposition(
                sizes.pop(),
                tuple(
                    SubjectSpec(name, token.get("profile"), ScreenFraction(token.get("screen")))
                    for _, _, name, token in members
                ),
            )
        )
    return Composition(tuple(planes))


@dataclass(frozen=True, slots=True)
class _Step:
    duration: Fraction
    label: str
    verb: str
    kind: str
    shot_index: int
    state: StateId
    after: Composition
    reads: tuple[str, ...] = ()  # subject names passed through untouched


def _duration(s: Stylesheet, verb: str) -> Fraction:
    """Stylesheet duration, or 1 unit when missing (validation warns, W203)."""
    return s.duration_by_verb.get(verb, Fraction(1))


def _reads(e: ScreenEvent) -> tuple[str, ...]:
    if e.drives_frame:
        return ()
    return tuple(dict.fromkeys(referenced_names(e)))


def compile_storyboard(
    sb: Storyboard, s: Stylesheet = DEFAULT_STYLESHEET
) -> CompiledStoryboard:
    """Validate and fold in one pass, then lay the chain out as a net.

    Raises CompileError, carrying every diagnostic, when the board does
    not validate; otherwise the result carries the warnings.
    """
    diagnostics, frames_by_shot = fold_storyboard(sb, s)
    _reject_errors(diagnostics)

    steps: list[_Step] = []
    for i, shot in enumerate(sb.shots):
        frames = frames_by_shot[i]
        states = event_states(shot.events)
        for j, e in enumerate(shot.events):
            steps.append(_Step(_duration(s, e.verb), format_event(e), e.verb, "event", i,
                               states[j], frames[j + 1], _reads(e)))
        if i + 1 < len(sb.shots):
            join = sb.joins[i].value
            steps.append(_Step(HOLD_DURATION, "hold", "hold", "hold", i, states[-1], frames[-1]))
            steps.append(_Step(_duration(s, join), join, join, "join", i,
                               StateId.STATIC_CHANGE, frames_by_shot[i + 1][0]))
    compositions = (frames_by_shot[0][0], *(step.after for step in steps))

    subject_names = sorted(
        {name for frames in frames_by_shot for f in frames for name in f.subject_names()}
    )
    places = [Place(CAMERA_PLACE, PlaceKind.CAMERA)]
    places += [Place(subject_place(n), PlaceKind.SUBJECT) for n in subject_names]
    places += [Place(control_place(k), PlaceKind.CONTROL) for k in range(len(steps) + 1)]

    # The camera token always describes the interval its marking spans, so
    # each transition installs the motion flag of the step that follows it;
    # after the last one, the last shot's closing hold (``states[-1]``).
    motion = [step.state >= StateId.MOVING_HOLD for step in steps]
    motion.append(states[-1] is StateId.MOVING_HOLD)

    transitions: list[Transition] = []
    info: dict[str, TransitionInfo] = {}
    for k, step in enumerate(steps, start=1):
        tid = f"t{k}"
        changes = compositions[k - 1] != step.after
        inputs = [control_place(k - 1)]
        outputs = [control_place(k)]
        effect: list[tuple[str, PetriToken]] = []
        if changes or step.kind == "join":
            after_tokens = _subject_tokens(step.after)
            inputs += sorted(_subject_tokens(compositions[k - 1]))
            outputs += sorted(after_tokens)
            effect += sorted(after_tokens.items())
        else:
            for name in step.reads:
                pid = subject_place(name)
                inputs.append(pid)
                outputs.append(pid)
        if motion[k] != motion[k - 1]:
            inputs.append(CAMERA_PLACE)
            outputs.append(CAMERA_PLACE)
            effect.append((CAMERA_PLACE, PetriToken.of(moving=motion[k])))
        transitions.append(
            Transition(tid, step.label, step.duration,
                       tuple(inputs), tuple(outputs), tuple(effect))
        )
        info[tid] = TransitionInfo(step.kind, step.shot_index, step.state, changes, step.verb)

    initial: Marking = {p.id: () for p in places}
    initial[CAMERA_PLACE] = (PetriToken.of(moving=motion[0]),)
    initial[control_place(0)] = (PetriToken(),)
    for pid, token in _subject_tokens(frames_by_shot[0][0]).items():
        initial[pid] = (token,)

    net = Net(tuple(places), tuple(transitions), initial)
    return CompiledStoryboard(sb, s, net, info, compositions, tuple(diagnostics))


@dataclass(frozen=True, slots=True)
class TimelineEntry:
    t0: Fraction
    t1: Fraction
    shot_index: int
    state: StateId
    in_transition: bool
    composition: Composition


def timeline(compiled: CompiledStoryboard) -> list[TimelineEntry]:
    """Replay the net; one entry per interval the viewer can see.

    Zero-length intervals that change nothing (a lock firing, say) are
    dropped; zero-length changes (a cut) stay as boundary markers.  The
    closing hold reads the camera token the last firing left behind.
    """
    intervals = simulate(compiled.net)
    entries: list[TimelineEntry] = []
    last_shot = len(compiled.storyboard.shots) - 1
    for interval in intervals:
        comp = composition_of_marking(interval.marking)
        if interval.fired is None:
            moving = interval.marking[CAMERA_PLACE][0].get("moving")
            closing = StateId.MOVING_HOLD if moving else StateId.STATIC_HOLD
            entries.append(
                TimelineEntry(interval.t0, interval.t1, last_shot, closing, False, comp)
            )
            continue
        meta = compiled.info[interval.fired]
        if interval.t0 == interval.t1 and not meta.changes:
            continue
        entries.append(
            TimelineEntry(
                interval.t0, interval.t1, meta.shot_index,
                meta.state, meta.changes, comp,
            )
        )
    return entries
