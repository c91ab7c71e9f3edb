"""The acceptance gate: nine end-to-end guarantees, one line printed each.

Every test prints ``criterion N PASS/FAIL`` on its own, past pytest's
capture, so a plain ``pytest tests/test_acceptance.py`` reads as a
checklist.  The guarantees are deliberately redundant with the unit
tests: they exercise the public surface only, with oracles computed
independently inside this file or taken from the frozen reference fold
in ``fold_reference.py``.
"""
from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import broken_paths, corpus_paths, parse_ok
from psl.analysis import (
    StateId,
    infer_target,
    ShotCategory,
    classify_shot,
    validate,
)
from psl.ast import Cross, Profile, Shot
from psl.compiler import compile_storyboard, shot_frames, timeline
from psl.diagnostics import Severity
from psl.formatter import format_storyboard
from psl.generator import generate_sentence, random_composition
from psl.parser import parse_storyboard
from psl.petri import PlaceKind, simulate
from psl.render import render_storyboard
from psl.stylesheet import DEFAULT_STYLESHEET

from fold_reference import apply_stylesheet, normalize_positions
from petri_reference import fire
from replay_reference import composition_of_marking, markings
from test_corpus import EXPECTED_BROKEN


@contextmanager
def criterion(capsys, number, summary):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} FAIL  {summary}")
        raise
    with capsys.disabled():
        print(f"criterion {number} PASS  {summary}")


def test_criterion_1_thousand_sentence_roundtrip(capsys):
    """1000 generated sentences parse, reprint, and reparse unchanged in <5s."""
    with criterion(capsys, 1, "1000 random sentences round-trip in under 5 seconds"):
        started = time.monotonic()
        for seed in range(1000):
            text = generate_sentence(seed)
            sb, diagnostics = parse_storyboard(text)
            assert sb is not None, (seed, text)
            assert not any(d.severity is Severity.ERROR for d in diagnostics), (seed, text)
            out = format_storyboard(sb)
            assert out == text, (seed, text, out)
            sb2, _ = parse_storyboard(out)
            assert sb2 == sb, seed
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_classification_is_exhaustive(capsys):
    """Every event kind, alone and in pairs, lands in the right category."""
    with criterion(capsys, 2, "shot classification covers every event combination"):
        sb = parse_ok(
            "MS on Anna and Boris, lock, pan with Anna, dolly with Boris,"
            " crane with Anna, crane to LS on Anna and Boris,"
            " dolly to MS on Anna and Boris, pan to MS on Anna and Boris,"
            " continue to MCU on Anna and Boris, Anna speaks, Boris reacts,"
            " Boris reacts to Anna, Anna uses Boris, Anna touches Boris,"
            " Anna crosses Boris, Carla enters from left to MS on Anna and"
            " Boris and Carla, Carla exits right, Anna moves to MS on Boris and Anna."
        )
        shot = sb.shots[0]
        events = shot.events
        assert len(events) == 17
        assert len({type(e) for e in events}) == 16  # every event kind appears
        rank = {ShotCategory.SIMPLE: 0, ShotCategory.COMPLEX: 1, ShotCategory.COMPOSITE: 2}

        def expected(e):
            if e.verb in ("dolly", "crane"):
                return ShotCategory.COMPOSITE
            if e.verb in ("pan", "continue"):
                return ShotCategory.COMPLEX
            return ShotCategory.SIMPLE

        assert classify_shot(Shot(shot.initial, ())) is ShotCategory.SIMPLE
        for a in events:
            assert classify_shot(Shot(shot.initial, (a,))) is expected(a), a.verb
            for b in events:
                got = classify_shot(Shot(shot.initial, (a, b)))
                want = max(expected(a), expected(b), key=rank.__getitem__)
                assert got is want, (a.verb, b.verb)


def test_criterion_3_two_shot_defaults(capsys):
    """A bare two-shot lands at exactly 1/3 and 2/3, facing front."""
    with criterion(capsys, 3, "a bare two-shot defaults to thirds, facing front"):
        comp = shot_frames(parse_ok("MS on A and B.").shots[0])[0]
        (plane,) = comp.planes
        a, b = plane.subjects
        assert a.screen.fraction == Fraction(1, 3)
        assert b.screen.fraction == Fraction(2, 3)
        assert a.profile is Profile.FRONT and b.profile is Profile.FRONT


def test_criterion_4_cross_involution_and_replay_equivalence(capsys):
    """Crossing twice is the identity; net replay equals a direct fold."""
    with criterion(capsys, 4, "cross is an involution; net replay matches a direct fold"):
        rng = random.Random(2024)
        checked = 0
        for _ in range(2000):
            if checked >= 200:
                break
            comp = random_composition(rng, min_subjects=2)
            pair = None
            for plane in comp.planes:
                if len(plane.subjects) >= 2:
                    pair = (plane.subjects[0].name, plane.subjects[1].name)
                    break
            if pair is None:
                continue
            cross = Cross(*pair)
            once = infer_target(comp, cross)
            assert once != comp          # distinct names, so the swap shows
            assert infer_target(once, cross) == comp
            checked += 1
        assert checked >= 200

        def full(c):
            return normalize_positions(apply_stylesheet(c, DEFAULT_STYLESHEET))

        for path in corpus_paths():
            sb = parse_ok(path.read_text(encoding="utf-8"))
            frames = [full(sb.shots[0].initial)]
            for i, shot in enumerate(sb.shots):
                if i > 0:
                    frames.append(full(shot.initial))
                cur = frames[-1]
                for e in shot.events:
                    cur = full(infer_target(cur, e))
                    frames.append(cur)
                if i + 1 < len(sb.shots):
                    frames.append(cur)
            compiled = compile_storyboard(sb)
            replayed = markings(compiled.net, simulate(compiled.net))
            replay = [composition_of_marking(marking) for marking in replayed]
            assert replay == frames, path.name


def test_criterion_5_net_invariants(capsys):
    """Every reachable marking is sane; "with" steps never rewrite tokens."""
    with criterion(capsys, 5, "net invariants hold over every corpus replay"):
        with_verbs = {"pan", "dolly", "crane", "speak", "react", "use", "touch", "lock"}
        for path in corpus_paths():
            sb = parse_ok(path.read_text(encoding="utf-8"))
            compiled = compile_storyboard(sb)
            net = compiled.net
            kind_of = {p.id: p.kind for p in net.places}
            for replayed in markings(net, simulate(net)):
                control = sum(
                    len(tokens)
                    for pid, tokens in replayed.items()
                    if kind_of[pid] is PlaceKind.CONTROL
                )
                assert control == 1, path.name
                camera = replayed["camera"]
                assert len(camera) == 1 and isinstance(camera[0].get("moving"), bool)
                for pid, tokens in replayed.items():
                    if kind_of[pid] is PlaceKind.SUBJECT:
                        assert len(tokens) <= 1, (path.name, pid)

            marking = dict(net.initial)
            for t in net.transitions:
                after = fire(net, marking, t)
                meta = compiled.info[t.id]
                if meta.kind == "event" and meta.verb in with_verbs and not meta.changes:
                    for pid in t.inputs:
                        if kind_of[pid] is PlaceKind.SUBJECT:
                            assert after[pid][0] is marking[pid][0], (path.name, t.id)
                marking = after


def test_criterion_6_entry_count_is_events_plus_one(capsys):
    """n timed events in a single shot give n+1 timeline entries."""
    with criterion(capsys, 6, "n timed events make n+1 timeline entries (n=0..10)"):
        for n in range(11):
            clauses = [
                "Anna speaks" if k % 2 == 0 else "Boris reacts to Anna" for k in range(n)
            ]
            text = ", ".join(["MS on Anna and Boris", *clauses]) + "."
            sb = parse_ok(text)
            entries = timeline(compile_storyboard(sb))
            assert len(entries) == n + 1, n
            assert all(e.t1 > e.t0 for e in entries)


def test_criterion_7_deterministic_rendering(capsys):
    """Rendering twice is byte-identical; one figure per on-screen subject."""
    with criterion(capsys, 7, "rendering is deterministic, one figure per subject"):
        heights = [DEFAULT_STYLESHEET.figure_height_by_size[s] for s in sorted(
            DEFAULT_STYLESHEET.figure_height_by_size
        )]
        assert all(a > b for a, b in zip(heights, heights[1:]))
        for path in corpus_paths():
            sb = parse_ok(path.read_text(encoding="utf-8"))
            first = render_storyboard(sb)
            second = render_storyboard(sb)
            assert [(f.filename, f.svg) for f in first] == [
                (f.filename, f.svg) for f in second
            ], path.name
            entries = [e for e in timeline(compile_storyboard(sb)) if e.t1 > e.t0]
            assert len(first) == len(entries), path.name
            for frame, entry in zip(first, entries):
                want = len(entry.composition.subject_names())
                assert frame.svg.count("<circle") == want, (path.name, frame.filename)


def test_criterion_8_broken_corpus_is_stable(capsys):
    """Each broken file: exactly one error, the frozen code, an in-file span."""
    with criterion(capsys, 8, "every broken file keeps its one stable error code"):
        paths = broken_paths()
        assert len(paths) >= 10
        for path in paths:
            text = path.read_text(encoding="utf-8")
            sb, diagnostics = parse_storyboard(text)
            if sb is not None:
                diagnostics = list(diagnostics) + validate(sb)
            errors = [d for d in diagnostics if d.severity is Severity.ERROR]
            assert len(errors) == 1, path.name
            assert errors[0].code == EXPECTED_BROKEN[path.name], path.name
            span = errors[0].span
            assert 0 <= span.start < span.end <= len(text.encode("utf-8")), path.name


def test_criterion_9_four_interval_states(capsys):
    """Hand-built shots reach all four interval states, numbered 1 to 4."""
    with criterion(capsys, 9, "all four interval states are reachable as ids 1..4"):
        assert [int(s) for s in StateId] == [1, 2, 3, 4]

        def states_of(text):
            return [e.state for e in timeline(compile_storyboard(parse_ok(text)))]

        assert states_of("MS on Anna.") == [StateId.STATIC_HOLD]
        assert states_of("MS on Anna and Boris, Anna crosses Boris.") == [
            StateId.STATIC_CHANGE,
            StateId.STATIC_HOLD,
        ]
        assert states_of("MS on Anna, pan with Anna.") == [
            StateId.MOVING_HOLD,
            StateId.MOVING_HOLD,
        ]
        assert states_of("MS on Anna and Boris, pan with Anna, Anna crosses Boris.") == [
            StateId.MOVING_HOLD,
            StateId.MOVING_CHANGE,
            StateId.MOVING_HOLD,
        ]
        seen = set()
        for text in (
            "MS on Anna.",
            "MS on Anna and Boris, Anna crosses Boris.",
            "MS on Anna, pan with Anna.",
            "MS on Anna and Boris, pan with Anna, Anna crosses Boris.",
        ):
            seen.update(int(s) for s in states_of(text))
        assert seen == {1, 2, 3, 4}
