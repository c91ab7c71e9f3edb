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
per-interval states applies, and whether the frame is mid-change.  The
net gives the timing and the states; the frames are the compiler's own
``CompiledStoryboard.compositions``, where a step that keeps the frame
shares the object before it.  Rebuilding them from the subject tokens
is left to the tests, as the oracle that checks the tokens the net
carries.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .analysis import StateId, fold_shot, fold_storyboard
from .ast import Composition, ScreenEvent, Shot, Storyboard, referenced_names
from .diagnostics import Diagnostic, Record, Severity, has_errors
from .formatter import format_event
from .petri import Marking, Net, NetStructureError, PetriToken, Place, PlaceKind, Transition, replay
from .stylesheet import DEFAULT_STYLESHEET, HOLD_DURATION, Stylesheet


class CompileError(ValueError):
    """Storyboard rejected before net construction.

    ``diagnostics`` holds everything the validating pass found.
    """

    def __init__(self, message: str, diagnostics: tuple[Diagnostic, ...]) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


CAMERA_PLACE = "camera"
#: Enum members read per place or step, bound once: a read off the class is slow.
_CONTROL, _MOVING_HOLD = PlaceKind.CONTROL, StateId.MOVING_HOLD


def subject_place(name: str) -> str:
    return f"subject:{name}"


def control_place(index: int) -> str:
    return f"ctrl:{index}"


class TransitionInfo(Record):
    """Compile-time metadata the net itself does not need: ``kind`` is
    "event", "hold" or "join", and ``changes`` is True when the frame
    differs across the firing."""

    __slots__ = ("kind", "shot_index", "state", "changes", "verb")

    def __init__(self, kind: str, shot_index: int, state: StateId, changes: bool,
                 verb: str) -> None:
        set_kind, set_shot_index, set_state, set_changes, set_verb = self._setters
        set_kind(self, kind)
        set_shot_index(self, shot_index)
        set_state(self, state)
        set_changes(self, changes)
        set_verb(self, verb)


class CompiledStoryboard(Record):
    """A net with what it was built from.  ``compositions`` holds the frame
    content before transition k, plus the final frame; a step that keeps
    the frame (a hold, a join between equal frames, a "with" event) shares
    the object before it, so ``compositions[k] is compositions[k - 1]``
    exactly when ``info[f"t{k}"].changes`` is False.  ``timeline`` reads
    it, and the tests check that the subject tokens of the marking after
    step k rebuild to ``compositions[k]`` exactly.  ``diagnostics`` holds
    the warnings the validating pass found (an error stops compilation)."""

    __slots__ = ("storyboard", "stylesheet", "net", "info", "compositions", "diagnostics")

    def __init__(self, storyboard: Storyboard, stylesheet: Stylesheet, net: Net,
                 info: Mapping[str, TransitionInfo], compositions: tuple[Composition, ...],
                 diagnostics: tuple[Diagnostic, ...] = ()) -> None:
        set_storyboard, set_stylesheet, set_net, set_info, set_compositions, set_diagnostics = self._setters
        set_storyboard(self, storyboard)
        set_stylesheet(self, stylesheet)
        set_net(self, net)
        set_info(self, info)
        set_compositions(self, compositions)
        set_diagnostics(self, diagnostics)


def _reject_errors(diagnostics: list[Diagnostic]) -> None:
    if has_errors(diagnostics):
        first = next(d for d in diagnostics if d.severity is Severity.ERROR)
        # Raised unnamed: an exception kept in a local of the frame its
        # traceback holds would make a cycle that only the collector frees.
        raise CompileError(
            f"storyboard does not validate: {first.code} {first.message}", tuple(diagnostics)
        )


def shot_frames(shot: Shot, s: Stylesheet = DEFAULT_STYLESHEET) -> list[Composition]:
    """Opening frame plus the frame after each event, fully defaulted."""
    diagnostics, frames, _ = fold_shot(shot, s)
    _reject_errors(diagnostics)
    return frames


def _subject_tokens(comp: Composition) -> dict[str, PetriToken]:
    tokens: dict[str, PetriToken] = {}
    for plane_index, plane in enumerate(comp.planes):
        for slot, subject in enumerate(plane.subjects):
            # The attrs in key order, as ``PetriToken.of`` would sort them.
            tokens[subject_place(subject.name)] = PetriToken((
                ("plane", plane_index),
                ("profile", subject.profile),
                ("screen", subject.screen.fraction),
                ("size", plane.size),
                ("slot", slot),
            ))
    return tokens


#: The duration of a verb the stylesheet leaves out (validation warns, W203).
_MISSING_DURATION = Fraction(1)


def _duration(s: Stylesheet, verb: str) -> Fraction:
    """Stylesheet duration, or 1 unit when missing."""
    return s.duration_by_verb.get(verb, _MISSING_DURATION)


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
    diagnostics, frames_by_shot, states_by_shot = fold_storyboard(sb, s)
    _reject_errors(diagnostics)

    # Each step's metadata, label, duration and the subjects it passes
    # through untouched; ``compositions`` gains the frame after each step,
    # the same object as before it when the step keeps the frame.
    steps: list[tuple[TransitionInfo, str, Fraction, tuple[str, ...]]] = []
    compositions = [frames_by_shot[0][0]]
    for i, shot in enumerate(sb.shots):
        frames, states = frames_by_shot[i], states_by_shot[i]
        for j, e in enumerate(shot.events):
            meta = TransitionInfo("event", i, states[j], frames[j] != frames[j + 1], e.verb)
            steps.append((meta, format_event(e), _duration(s, e.verb), _reads(e)))
            compositions.append(frames[j + 1] if meta.changes else compositions[-1])
        if i + 1 < len(sb.shots):
            join, after = sb.joins[i].value, frames_by_shot[i + 1][0]
            changes, held = frames[-1] != after, compositions[-1]
            steps.append((TransitionInfo("hold", i, states[-1], False, "hold"), "hold",
                          HOLD_DURATION, ()))
            steps.append((TransitionInfo("join", i, StateId.STATIC_CHANGE, changes, join),
                          join, _duration(s, join), ()))
            compositions += (held, after if changes else held)

    distinct = {id(f): f for f in compositions}.values()  # a shared frame once
    subject_names = sorted({name for f in distinct for name in f.subject_names()})
    controls = [control_place(k) for k in range(len(steps) + 1)]
    places = [Place(CAMERA_PLACE, PlaceKind.CAMERA)]
    places += [Place(subject_place(n), PlaceKind.SUBJECT) for n in subject_names]
    places += [Place(pid, _CONTROL) for pid in controls]

    # The camera token always describes the interval its marking spans, so
    # each transition installs the motion flag of the step that follows it;
    # after the last one, the last shot's closing hold.
    motion = [meta.state >= _MOVING_HOLD for meta, *_ in steps]
    motion.append(states_by_shot[-1][-1] is _MOVING_HOLD)

    transitions: list[Transition] = []
    info: dict[str, TransitionInfo] = {}
    # The subject tokens of the frame on screen, carried from one
    # frame-changing step to the next.
    opening = on_screen = _subject_tokens(compositions[0])
    for k, (meta, label, duration, reads) in enumerate(steps, start=1):
        tid = f"t{k}"
        inputs = [controls[k - 1]]
        outputs = [controls[k]]
        effect: list[tuple[str, PetriToken]] = []
        if meta.changes or meta.kind == "join":
            after_tokens = _subject_tokens(compositions[k])
            inputs += sorted(on_screen)
            outputs += sorted(after_tokens)
            effect += sorted(after_tokens.items())
            on_screen = after_tokens
        else:
            for name in reads:
                pid = subject_place(name)
                inputs.append(pid)
                outputs.append(pid)
        if motion[k] != motion[k - 1]:
            inputs.append(CAMERA_PLACE)
            outputs.append(CAMERA_PLACE)
            effect.append((CAMERA_PLACE, PetriToken.of(moving=motion[k])))
        transitions.append(
            Transition(tid, label, duration, tuple(inputs), tuple(outputs), tuple(effect))
        )
        info[tid] = meta

    initial: Marking = {p.id: () for p in places}
    initial[CAMERA_PLACE] = (PetriToken.of(moving=motion[0]),)
    initial[controls[0]] = (PetriToken(),)
    for pid, token in opening.items():
        initial[pid] = (token,)

    net = Net(tuple(places), tuple(transitions), initial)
    return CompiledStoryboard(sb, s, net, info, tuple(compositions), tuple(diagnostics))


class TimelineEntry(Record):
    __slots__ = ("t0", "t1", "shot_index", "state", "in_transition", "composition")

    def __init__(self, t0: Fraction, t1: Fraction, shot_index: int, state: StateId,
                 in_transition: bool, composition: Composition) -> None:
        set_t0, set_t1, set_shot_index, set_state, set_in_transition, set_composition = self._setters
        set_t0(self, t0)
        set_t1(self, t1)
        set_shot_index(self, shot_index)
        set_state(self, state)
        set_in_transition(self, in_transition)
        set_composition(self, composition)


def timeline(compiled: CompiledStoryboard) -> list[TimelineEntry]:
    """Consume the replay as it fires; one entry per interval the viewer can see.

    Zero-length intervals that change nothing (a lock firing, say) are
    dropped; zero-length changes (a cut) stay as boundary markers.  The
    closing hold reads the camera token as every firing's ``changes``
    left it, those of dropped intervals included.
    Interval k shows ``compiled.compositions[k]``, which is the object
    interval k - 1 showed when firing k kept the frame.
    Raises NetStructureError when the replay stalls before every
    transition has fired, as it does when a token it needs is missing.
    """
    frames = compiled.compositions
    entries: list[TimelineEntry] = []
    last_shot = len(compiled.storyboard.shots) - 1
    total = len(compiled.net.transitions)
    camera = None  # the camera's tokens after the last firing that changed them
    for k, interval in enumerate(replay(compiled.net)):
        camera = interval.changes.get(CAMERA_PLACE, camera)
        if interval.fired is None:  # the closing hold, after k firings
            if k < total:
                raise NetStructureError(f"replay stalled: {k} of {total} transitions fired")
            camera = compiled.net.initial[CAMERA_PLACE] if camera is None else camera
            closing = _MOVING_HOLD if camera[0].get("moving") else StateId.STATIC_HOLD
            entries.append(
                TimelineEntry(interval.t0, interval.t1, last_shot, closing, False, frames[k])
            )
            continue
        meta = compiled.info[interval.fired]
        if interval.t0 == interval.t1 and not meta.changes:
            continue
        entries.append(TimelineEntry(
            interval.t0, interval.t1, meta.shot_index, meta.state, meta.changes, frames[k]))
    return entries
