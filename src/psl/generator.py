"""Seeded random storyboards for fuzzing the parse/format roundtrip.

Sentences are built as syntax trees, not strings: every draw respects the
continuity rules (who is on screen, adjacency for crossings, entrances
only from off screen), so the output always parses back and validates
clean.  Positions are drawn all-or-none per plane and strictly increasing,
which keeps defaulting from ever colliding with an explicit value.

``max_depth`` of ``generate_storyboard`` scales how much of the grammar a
sentence may use: depth 1 is the minimal "<SIZE> on <Name>." shape, depth
2 adds profiles and positions, depth 3 adds events and deep staging, depth
4 and up allows multi-shot storyboards with cuts and dissolves.

Determinism matters more than variety here: a fixed seed must yield the
same text forever, because the roundtrip suite freezes on it.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .analysis import infer_target
from .ast import (
    CAMERA_TO,
    CAMERA_WITH,
    CameraWith,
    Composition,
    Cross,
    Enter,
    Exit,
    FlatComposition,
    Lock,
    Move,
    Profile,
    React,
    ScreenAnchor,
    ScreenEvent,
    ScreenFraction,
    Shot,
    ShotTransition,
    Side,
    Size,
    Speak,
    Storyboard,
    SubjectSpec,
    Touch,
    Use,
)
from .formatter import format_storyboard

NAME_POOL = ("Albert", "Beatrix", "Carl", "Dana", "Emil", "Fay", "Greta", "Hugo")

_SIZES = tuple(Size)
_PROFILES = tuple(Profile)
_SIDES = (Side.LEFT, Side.RIGHT)
_JOINS = (ShotTransition.CUT, ShotTransition.DISSOLVE)
_POSITION_LADDER = (
    Fraction(1, 8), Fraction(1, 6), Fraction(1, 4), Fraction(1, 3),
    Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(2, 3),
    Fraction(3, 4), Fraction(5, 6), Fraction(7, 8),
)
_ANCHOR_BY_VALUE = {anchor.fraction: anchor for anchor in ScreenAnchor}
_MAX_ON_SCREEN = 6


def generate_sentence(seed: int) -> str:
    """Canonical text of a random depth-4 storyboard; fixed per seed."""
    return format_storyboard(generate_storyboard(random.Random(seed)))


def generate_storyboard(rng: random.Random, max_depth: int = 4) -> Storyboard:
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if max_depth == 1:
        plane = FlatComposition(rng.choice(_SIZES), (SubjectSpec(rng.choice(NAME_POOL)),))
        return Storyboard((Shot(Composition((plane,))),))
    shot_budget = 1 if max_depth < 4 else rng.randint(1, min(4, max_depth - 2))
    shots: list[Shot] = []
    joins: list[ShotTransition] = []
    for index in range(shot_budget):
        if index:
            joins.append(rng.choice(_JOINS))
        shots.append(_random_shot(rng, max_depth))
    return Storyboard(tuple(shots), tuple(joins))


def random_composition(
    rng: random.Random,
    names: Sequence[str] | None = None,
    *,
    min_subjects: int = 1,
    max_subjects: int = 4,
    max_planes: int = 2,
    decorate: bool = True,
) -> Composition:
    """A well-formed composition over ``names`` (or a fresh sample).

    Plane sizes widen toward the background and names never repeat, so
    the result survives validation and stylesheet completion as-is.
    """
    if names is None:
        count = rng.randint(min_subjects, min(max_subjects, len(NAME_POOL)))
        chosen = list(rng.sample(NAME_POOL, count))
    else:
        chosen = list(names)
    plane_count = rng.randint(1, max(1, min(max_planes, len(chosen), len(_SIZES))))
    if plane_count > 1:
        cuts = sorted(rng.sample(range(1, len(chosen)), plane_count - 1))
    else:
        cuts = []
    bounds = [0, *cuts, len(chosen)]
    runs = [chosen[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    sizes = sorted(rng.sample(_SIZES, plane_count))
    planes = tuple(
        _random_plane(rng, size, run, decorate) for size, run in zip(sizes, runs)
    )
    return Composition(planes)


def _random_plane(
    rng: random.Random, size: Size, names: Sequence[str], decorate: bool
) -> FlatComposition:
    positioned = decorate and rng.random() < 0.4
    if positioned:
        values: list[Fraction | None] = sorted(rng.sample(_POSITION_LADDER, len(names)))
    else:
        values = [None] * len(names)
    subjects = []
    for name, value in zip(names, values):
        profile = rng.choice(_PROFILES) if decorate and rng.random() < 0.4 else None
        screen = None
        if value is not None:
            anchor = _ANCHOR_BY_VALUE.get(value)
            if anchor is not None and rng.random() < 0.5:
                screen = anchor
            else:
                screen = ScreenFraction(value)
        subjects.append(SubjectSpec(name, profile, screen))
    return FlatComposition(size, tuple(subjects))


def _random_shot(rng: random.Random, depth: int) -> Shot:
    decorate = depth >= 2
    initial = random_composition(
        rng,
        max_subjects=2 if depth < 3 else 4,
        max_planes=1 if depth < 3 else 2,
        decorate=decorate,
    )
    if depth < 3:
        return Shot(initial)
    budget = rng.randint(0, min(4, depth))
    return Shot(initial, _random_events(rng, initial, budget))


def _random_events(
    rng: random.Random, initial: Composition, budget: int
) -> tuple[ScreenEvent, ...]:
    events: list[ScreenEvent] = []
    cur = initial
    force_actor = False
    while len(events) < budget:
        e = _random_event(rng, cur, force_actor, budget - len(events))
        events.append(e)
        force_actor = isinstance(e, Lock)
        cur = infer_target(cur, e)
    return tuple(events)


def _random_event(
    rng: random.Random, cur: Composition, actors_only: bool, room: int
) -> ScreenEvent:
    names = cur.subject_names()
    off = [n for n in NAME_POOL if n not in names]
    kinds: list[type[ScreenEvent]] = [Speak, React, Move]
    if len(names) >= 2:
        kinds += [Use, Touch, Exit]
    if any(len(plane.subjects) >= 2 for plane in cur.planes):
        kinds.append(Cross)
    if off and len(names) < _MAX_ON_SCREEN:
        kinds.append(Enter)
    if not actors_only:
        kinds += [*CAMERA_WITH.values(), *CAMERA_TO.values()]
        if room >= 2:
            kinds.append(Lock)  # leaves room for the action it scopes
    kind = rng.choice(kinds)

    if kind is Speak:
        return Speak(rng.choice(names))
    if kind is React:
        actor = rng.choice(names)
        others = [n for n in names if n != actor]
        to = rng.choice(others) if others and rng.random() < 0.5 else None
        return React(actor, to)
    if kind in (Use, Touch):
        actor, prop = rng.sample(names, 2)
        return kind(actor, prop)
    if kind is Move:
        return Move(rng.choice(names), _retarget(rng, cur))
    if kind is Cross:
        wide = [p for p in cur.planes if len(p.subjects) >= 2]
        plane = rng.choice(wide)
        lo = rng.randrange(len(plane.subjects) - 1)
        pair = [plane.subjects[lo].name, plane.subjects[lo + 1].name]
        rng.shuffle(pair)
        return Cross(pair[0], pair[1])
    if kind is Exit:
        return Exit(rng.choice(names), rng.choice(_SIDES))
    if kind is Enter:
        actor = rng.choice(off)
        return Enter(actor, rng.choice(_SIDES), _retarget(rng, cur, extra=actor))
    if kind is Lock:
        return Lock()
    if issubclass(kind, CameraWith):
        return kind(SubjectSpec(rng.choice(names)))
    return kind(_retarget(rng, cur))


def _retarget(rng: random.Random, cur: Composition, extra: str | None = None) -> Composition:
    """A fresh arrangement that keeps everyone on screen (plus ``extra``)."""
    names = cur.subject_names()
    if extra is not None:
        names = names + [extra]
    else:
        off = [n for n in NAME_POOL if n not in names]
        if off and len(names) < _MAX_ON_SCREEN and rng.random() < 0.25:
            names = names + [rng.choice(off)]
    rng.shuffle(names)
    return random_composition(rng, names)
