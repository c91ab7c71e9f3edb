"""The validate-and-fold pass against the reference copy of the old one.

``fold_reference.fold_storyboard`` is the fold as it was before each
composition was completed in one pass over shared screen positions.
Both must give the same diagnostics (code, severity, span, message), in
the same order, and the same frames, on the texts of the lexer's
differential test, on seeded compositions that aim at completion
(duplicates, misordered and colliding positions, anchors and blanks),
and on seeded events that aim at continuity.
Frame equality ignores spans and cannot tell a named anchor from its
fraction, so each plane's span and each subject's profile and position
class are compared as well.  Every stylesheet below runs on every text:
the built-in one, one with a positions table, one whose default profile
is not front, one whose rows collide with explicit positions, and one
built in code, with a left default profile and a row of its own.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from fold_reference import fold_storyboard as reference_fold
from test_lexer_differential import broken_corpus, corpus, generated, inserts_alone, mutated

from psl.analysis import fold_storyboard
from psl.ast import (
    Composition,
    FlatComposition,
    Profile,
    ScreenAnchor,
    ScreenFraction,
    Shot,
    ShotTransition,
    Size,
    Storyboard,
    SubjectSpec,
)
from psl.diagnostics import Severity
from psl.parser import parse_storyboard
from psl.stylesheet import DEFAULT_STYLESHEET, Stylesheet, parse_stylesheet

STYLESHEETS = {
    "default": DEFAULT_STYLESHEET,
    "table": parse_stylesheet(
        "positions.1 = 2/5\n"
        "positions.2 = 1/4, 3/4\n"
        "positions.3 = 1/5, 1/2, 4/5\n"
        "positions.5 = 1/10, 3/10, 1/2, 7/10, 9/10\n"
    ),
    "profile": parse_stylesheet("profile = 3/4 back right\n"),
    "colliding": parse_stylesheet(
        "positions.2 = 7/10, 9/10\n"
        "positions.3 = 1/10, 1/5, 3/10\n"
        "positions.4 = 1/2, 3/5, 7/10, 4/5\n"
    ),
    "programmatic": Stylesheet(
        Profile.LEFT,
        {4: (Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8))},
        DEFAULT_STYLESHEET.duration_by_verb,
        DEFAULT_STYLESHEET.figure_height_by_size,
    ),
}

#: Explicit positions by value: fractions, one unreduced, and the anchors.
_POSITIONS = (
    (Fraction(1, 8), " at 1/8"), (Fraction(1, 4), " at 1/4"), (Fraction(1, 3), " at 1/3"),
    (Fraction(1, 2), " at 2/4"), (Fraction(2, 3), " at 2/3"), (Fraction(7, 8), " at 7/8"),
    *((anchor.fraction, f" screen {anchor.value}") for anchor in ScreenAnchor),
)
_PROFILES = ("", "", "", " front", " 3/4 left", " back", " right", " 6/8 back right")
_NAMES = ("Anna", "Boris", "Carla", "Dmitri", "Elena")
_SIZES = ("BCU", "CU", "MCU", "MS", "MLS", "LS", "VLS")
ERROR = Severity.ERROR


def compositions(rng):
    """Boards of one or two shots whose compositions mix blanks, anchors,
    fractions and profiles; a few repeat a name or put positions out of
    order, and the rest are left to the stylesheet to clash or not."""

    def plane(names):
        explicit = sorted(rng.sample(range(len(names)), rng.randint(0, len(names))))
        positions = rng.sample(_POSITIONS, len(explicit))
        if rng.random() < 0.8:
            positions.sort()
        spelled = dict(zip(explicit, (spelling for _, spelling in positions)))
        subjects = [
            name + rng.choice(_PROFILES) + spelled.get(index, "") for index, name in enumerate(names)
        ]
        return f"{rng.choice(_SIZES)} on {' and '.join(subjects)}"

    def composition():
        names = rng.sample(_NAMES, rng.randint(1, 5))
        if rng.random() < 0.1:
            names.insert(rng.randint(0, len(names)), rng.choice(names))
        planes = []
        while names:
            cut = rng.randint(1, len(names))
            planes.append(plane(names[:cut]))
            names = names[cut:]
        return ", ".join(planes)

    texts = []
    for _ in range(600):
        first = f"{composition()}, pan to {composition()}."
        texts.append(first if rng.random() < 0.5 else f"{first}\nCut to {composition()}.")
    return texts


_EVENTS = (
    "{a} speaks", "{a} reacts", "{a} reacts to {b}", "{a} uses {b}", "{a} touches {b}",
    "{a} crosses {b}", "{a} exits left", "{a} enters from right to {c}", "{a} moves to {c}",
    "pan with {a}", "crane to {c}", "lock",
)


def events(rng):
    """One-shot boards whose events name subjects on and off screen, so
    that every continuity rule fires, alone and together: an entrance of
    a subject already on screen whose target leaves it out, say."""

    def composition():
        return f"{rng.choice(_SIZES)} on {' and '.join(rng.sample(_NAMES[:4], rng.randint(1, 3)))}"

    texts = []
    for _ in range(400):
        clauses = [
            rng.choice(_EVENTS).format(
                a=rng.choice(_NAMES[:4]), b=rng.choice(_NAMES[:4]), c=composition())
            for _ in range(rng.randint(1, 4))
        ]
        texts.append(f"{composition()}, {', '.join(clauses)}.")
    return texts


def shape(frame: Composition):
    """What ``==`` leaves out of a frame: spans, profiles, position classes."""
    return [
        (plane.span, [(s.name, s.profile, type(s.screen), s.screen) for s in plane.subjects])
        for plane in frame.planes
    ]


def folded(fold, sb: Storyboard, s: Stylesheet):
    try:
        diagnostics, frames_by_shot = fold(sb, s)
    except Exception as failure:  # the failure itself is compared
        return "raised", type(failure), str(failure)
    return (
        [(d.code, d.severity, d.span.start, d.span.end, d.message) for d in diagnostics],
        frames_by_shot,
        [[shape(frame) for frame in frames] for frames in frames_by_shot],
    )


def assert_same_fold(sb: Storyboard, where) -> None:
    for name, s in STYLESHEETS.items():
        got = folded(fold_storyboard, sb, s)
        assert got == folded(reference_fold, sb, s), (name, where)
        if got[0] != "raised" and not any(severity is ERROR for _, severity, *_ in got[0]):
            for frames in got[1]:
                for frame in frames:
                    for plane in frame.planes:
                        assert plane.span is None, (name, where)
                        for subject in plane.subjects:
                            assert subject.profile is not None, (name, where)
                            assert type(subject.screen) is ScreenFraction, (name, where)


@pytest.mark.parametrize(
    "family", [corpus, broken_corpus, generated, mutated, inserts_alone, compositions, events]
)
def test_fold_matches_the_reference(family):
    texts = family(random.Random(f"fold-{family.__name__}"))
    assert texts
    for text in texts:
        sb, _ = parse_storyboard(text)
        if sb is not None:
            assert_same_fold(sb, text)


def test_the_stylesheets_reach_every_outcome():
    """Both folds complete some boards and report each shape error under
    every stylesheet, so the comparison above is not vacuous."""
    seen = set()
    for text in compositions(random.Random("fold-compositions")):
        sb, _ = parse_storyboard(text)
        for name, s in STYLESHEETS.items():
            got = folded(fold_storyboard, sb, s)
            if got[0] == "raised":
                seen.add((name, got[1]))
            else:
                seen.update((name, code) for code, *_ in got[0])
                if not any(severity is ERROR for _, severity, *_ in got[0]):
                    seen.add((name, "completed"))
    for name in STYLESHEETS:
        assert {(name, "E102"), (name, "E106"), (name, "completed"), (name, "E108")} <= seen, name


def test_the_event_boards_reach_every_continuity_rule():
    seen = set()
    for text in events(random.Random("fold-events")):
        seen.update(d.code for d in fold_storyboard(parse_storyboard(text)[0])[0])
    assert {"E101", "E103", "E104", "E105", "E107", "E109", "W201", "W202"} <= seen


def test_library_built_positions_match_the_reference():
    """Trees built without the parser: Fraction positions, anchors and
    blanks, with and without spans."""
    rng = random.Random("fold-library")
    values = [None, None, Fraction(1, 5), Fraction(1, 2), Fraction(3, 4), Fraction(1, 3),
              Fraction(3, 5), *ScreenAnchor]

    def composition():
        planes = []
        for _ in range(rng.randint(1, 2)):
            subjects = []
            for name in rng.sample(_NAMES, rng.randint(1, 4)):
                value = rng.choice(values)
                screen = value if value is None or isinstance(value, ScreenAnchor) else ScreenFraction(value)
                subjects.append(SubjectSpec(name, rng.choice([None, *Profile]), screen))
            planes.append(FlatComposition(rng.choice(list(Size)), tuple(subjects)))
        return Composition(tuple(planes))

    for _ in range(400):
        sb = Storyboard((Shot(composition()), Shot(composition())), (ShotTransition.CUT,))
        assert_same_fold(sb, sb)
