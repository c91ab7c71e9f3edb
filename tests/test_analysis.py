"""Analysis: classification, continuity folding, states, and validation."""
from __future__ import annotations

import re
from fractions import Fraction

import pytest

from conftest import parse_ok
from fold_reference import apply_stylesheet
from psl import analysis
from psl.analysis import (
    ContinuityError,
    ShotCategory,
    StateId,
    classify_shot,
    event_states,
    fold_storyboard,
    infer_target,
    validate,
)
from psl.ast import (
    EVENT_TYPES,
    Composition,
    ContinueTo,
    CraneTo,
    Cross,
    DollyTo,
    Enter,
    Exit,
    Move,
    PanTo,
    Profile,
    ScreenFraction,
    Side,
    Speak,
    Use,
)
from psl.diagnostics import (
    E_BAD_CROSS,
    E_DUPLICATE,
    E_ENTER_ON_SCREEN,
    E_EXIT_ABSENT,
    E_EXIT_EMPTIES,
    E_OFFSCREEN,
    E_ORDERING,
    E_POSITION_CLASH,
    E_TARGET_MISSING,
    Severity,
    W_DROPPED,
    W_LOCK_UNUSED,
    W_NO_DURATION,
    has_errors,
)
from psl.stylesheet import DEFAULT_STYLESHEET, Stylesheet, StylesheetError, parse_stylesheet


def shot_of(text):
    return parse_ok(text).shots[0]


def events_of(text):
    return shot_of(text).events


# --- event taxonomy ------------------------------------------------------

def test_every_event_is_to_or_with():
    events = events_of(
        "MS on Anna and Boris, lock, pan with Anna, dolly with Boris, crane with Anna,"
        " crane to LS on Anna and Boris, pan to MS on Anna and Boris,"
        " dolly to MS on Anna and Boris,"
        " continue to MCU on Anna and Boris, Anna speaks, Boris reacts to Anna,"
        " Anna uses Boris, Anna touches Boris, Anna crosses Boris,"
        " Carla enters from left to MS on Anna and Boris and Carla,"
        " Carla exits right, Anna moves to MS on Boris and Anna."
    )
    assert {type(e) for e in events} == set(EVENT_TYPES)
    to_events = {PanTo, DollyTo, CraneTo, ContinueTo, Move, Enter, Exit, Cross}
    for e in events:
        assert e.drives_frame is (type(e) in to_events), e.verb


@pytest.mark.parametrize(
    "text,category",
    [
        ("MS on Anna.", ShotCategory.SIMPLE),
        ("MS on Anna, Anna speaks, Anna exits left.", ShotCategory.SIMPLE),
        ("MS on Anna and Boris, lock, Anna crosses Boris.", ShotCategory.SIMPLE),
        ("MS on Anna, pan with Anna.", ShotCategory.COMPLEX),
        ("MS on Anna, pan to CU on Anna.", ShotCategory.COMPLEX),
        ("MS on Anna, pan to CU on Anna, continue to MS on Anna.", ShotCategory.COMPLEX),
        ("MS on Anna, dolly with Anna.", ShotCategory.COMPOSITE),
        ("MS on Anna, crane to LS on Anna.", ShotCategory.COMPOSITE),
        # travel beats a pan no matter the order
        ("MS on Anna, pan with Anna, dolly to CU on Anna.", ShotCategory.COMPOSITE),
        ("MS on Anna, dolly to CU on Anna, pan with Anna.", ShotCategory.COMPOSITE),
    ],
)
def test_classify_shot(text, category):
    assert classify_shot(shot_of(text)) is category


# --- continuity folding ---------------------------------------------------

def test_with_events_leave_the_frame_alone():
    shot = shot_of("MS on Anna and Boris, Anna speaks, pan with Boris.")
    cur = shot.initial
    for e in shot.events:
        assert infer_target(cur, e) == cur


def test_to_events_return_their_target():
    shot = shot_of("MS on Anna, pan to CU on Anna.")
    assert infer_target(shot.initial, shot.events[0]) == shot.events[0].target


def test_cross_swaps_names_and_screens():
    shot = shot_of("MS on Anna at 1/4 and Boris at 3/4, Anna crosses Boris.")
    after = infer_target(shot.initial, shot.events[0])
    (plane,) = after.planes
    assert [s.name for s in plane.subjects] == ["Boris", "Anna"]
    assert [s.screen.value for s in plane.subjects] == [Fraction(1, 4), Fraction(3, 4)]


def test_cross_twice_restores_the_frame():
    shot = shot_of("MS on Anna 3/4 left at 1/4 and Boris back at 3/4.")
    once = infer_target(shot.initial, Cross("Anna", "Boris"))
    twice = infer_target(once, Cross("Anna", "Boris"))
    assert twice == shot.initial


def test_cross_requires_same_plane_adjacency():
    comp = parse_ok("MS on Anna, LS on Boris.").shots[0].initial
    with pytest.raises(ContinuityError) as exc:
        infer_target(comp, Cross("Anna", "Boris"))
    assert exc.value.code == E_BAD_CROSS
    wide = parse_ok("MS on Anna and Boris and Carla.").shots[0].initial
    with pytest.raises(ContinuityError):
        infer_target(wide, Cross("Anna", "Carla"))  # not adjacent
    with pytest.raises(ContinuityError):
        infer_target(wide, Cross("Anna", "Anna"))


def test_exit_drops_subject_and_empty_plane():
    comp = parse_ok("MCU on Anna, LS on Boris.").shots[0].initial
    after = infer_target(comp, Exit("Anna", Side.LEFT))
    assert [p.size.name for p in after.planes] == ["LS"]
    assert after.subject_names() == ["Boris"]


def test_exit_of_last_subject_fails():
    comp = parse_ok("MS on Anna.").shots[0].initial
    with pytest.raises(ContinuityError) as exc:
        infer_target(comp, Exit("Anna", Side.LEFT))
    assert exc.value.code == E_EXIT_EMPTIES


def test_exit_of_absent_subject_fails():
    comp = parse_ok("MS on Anna.").shots[0].initial
    with pytest.raises(ContinuityError) as exc:
        infer_target(comp, Exit("Boris", Side.LEFT))
    assert exc.value.code == E_EXIT_ABSENT


def test_enter_target_must_include_the_entrant():
    shot = shot_of("MS on Anna, Boris enters from left to MS on Anna and Boris.")
    after = infer_target(shot.initial, shot.events[0])
    assert after.subject_names() == ["Anna", "Boris"]
    bad = shot_of("MS on Anna, Boris enters from left to CU on Anna.")
    with pytest.raises(ContinuityError) as exc:
        infer_target(bad.initial, bad.events[0])
    assert exc.value.code == E_TARGET_MISSING


def test_infer_target_checks_who_is_on_screen():
    comp = parse_ok("MS on Anna.").shots[0].initial
    for event, missing in ((Speak("Zed"), "Zed"), (Use("Anna", "Zed"), "Zed"),
                           (Use("Yan", "Zed"), "Yan")):
        with pytest.raises(ContinuityError) as exc:
            infer_target(comp, event)
        assert (exc.value.code, exc.value.message) == (E_OFFSCREEN, f"{missing} is not on screen")
    # The entrant is on screen and missing from the target: E103 comes first.
    again = shot_of("MS on Anna, Anna enters from left to CU on Boris.")
    with pytest.raises(ContinuityError) as exc:
        infer_target(again.initial, again.events[0])
    assert (exc.value.code, exc.value.message) == (E_ENTER_ON_SCREEN, "Anna is already on screen")


# --- four interval states -------------------------------------------------

def test_event_states_walkthrough():
    events = events_of(
        "MS on Anna and Boris, Anna speaks, Anna crosses Boris,"
        " pan with Anna, Boris speaks, Anna crosses Boris, lock,"
        " Anna crosses Boris, pan to CU on Anna and Boris."
    )
    assert event_states(events) == [
        StateId.STATIC_HOLD,     # speak, camera parked
        StateId.STATIC_CHANGE,   # cross rearranges the frame
        StateId.MOVING_HOLD,     # tracking starts
        StateId.MOVING_HOLD,     # speak under tracking
        StateId.MOVING_CHANGE,   # cross under tracking
        StateId.STATIC_HOLD,     # lock parks the camera
        StateId.STATIC_CHANGE,   # cross after the lock
        StateId.MOVING_CHANGE,   # pan toward a new frame
        StateId.STATIC_HOLD,     # closing hold: the "to" pan ended tracking
    ]


def test_state_ids_are_small_ints():
    assert [int(s) for s in StateId] == [1, 2, 3, 4]


def test_final_camera_state():
    def closing(text):
        return event_states(events_of(text))[-1]

    assert closing("MS on Anna.") is StateId.STATIC_HOLD
    assert closing("MS on Anna, pan with Anna.") is StateId.MOVING_HOLD
    assert closing("MS on Anna, pan with Anna, lock.") is StateId.STATIC_HOLD
    assert closing("MS on Anna, pan with Anna, pan to CU on Anna.") is StateId.STATIC_HOLD
    assert closing("MS on Anna, pan to CU on Anna, dolly with Anna.") is StateId.MOVING_HOLD


# --- stylesheet application ------------------------------------------------

def test_apply_stylesheet_fills_blanks_only():
    comp = parse_ok("MS on Anna and Boris back at 5/6.").shots[0].initial
    full = apply_stylesheet(comp)
    a, b = full.planes[0].subjects
    assert a.profile is Profile.FRONT and b.profile is Profile.BACK
    assert a.screen == ScreenFraction(Fraction(1, 3))
    assert b.screen.fraction == Fraction(5, 6)


def test_apply_stylesheet_is_idempotent():
    comp = parse_ok("MCU on Anna, LS on Boris and Carla at 7/8.").shots[0].initial
    once = apply_stylesheet(comp)
    assert apply_stylesheet(once) == once


def test_apply_stylesheet_rejects_default_collisions():
    comp = parse_ok("MS on Anna and Boris at 1/3.").shots[0].initial
    with pytest.raises(StylesheetError):
        apply_stylesheet(comp)


def test_apply_stylesheet_keeps_every_explicit_value():
    comp = parse_ok("LS on Anna at 1/8 and Boris at 2/8 and Carla at 3/8.").shots[0].initial
    full = apply_stylesheet(comp)
    assert [s.screen.fraction for s in full.planes[0].subjects] == [
        Fraction(1, 8), Fraction(1, 4), Fraction(3, 8),
    ]


# --- completion in the fold -------------------------------------------------

def folded_positions(text, s=DEFAULT_STYLESHEET):
    """Each frame's screen positions, plane by plane, from an error-free fold."""
    diagnostics, frames_by_shot = fold_storyboard(parse_ok(text), s)
    assert not has_errors(diagnostics)
    return [
        [[subject.screen for subject in plane.subjects] for plane in frame.planes]
        for frames in frames_by_shot for frame in frames
    ]


def fifths(*ks):
    return [ScreenFraction(Fraction(k, 5)) for k in ks]


def test_a_cardinality_beyond_the_table_gets_even_spacing():
    s = parse_stylesheet("positions.2 = 1/5, 4/5\n")
    assert folded_positions("MS on Anna and Boris, LS on Carla and Dmitri and Elena and Fiona.", s) == [
        [fifths(1, 4), fifths(1, 2, 3, 4)],
    ]


def test_each_stylesheet_gets_its_own_default_rows():
    text = "MS on Anna and Boris, pan to LS on Anna and Boris.\nCut to CU on Anna and Boris."
    quarters = parse_stylesheet("positions.2 = 1/4, 3/4\n")
    edges = parse_stylesheet("positions.2 = 1/5, 4/5\n")
    for s, row in ((quarters, (Fraction(1, 4), Fraction(3, 4))), (edges, (Fraction(1, 5), Fraction(4, 5))),
                   (DEFAULT_STYLESHEET, (Fraction(1, 3), Fraction(2, 3))),
                   (quarters, (Fraction(1, 4), Fraction(3, 4)))):
        assert folded_positions(text, s) == [[[ScreenFraction(f) for f in row]]] * 3


def test_even_spacing_rows_up_to_eight_subjects_are_shared_between_calls():
    names = ("Anna", "Boris", "Carla", "Dmitri", "Elena", "Fiona", "Gregor", "Hana", "Ivan")
    quarters = parse_stylesheet("positions.2 = 1/4, 3/4\n")
    for n in (1, 2, 3, 8, 9):
        text = "MS on " + " and ".join(names[:n]) + "."
        (first,), = folded_positions(text)
        (again,), = folded_positions(text)
        (styled,), = folded_positions(text, quarters)
        assert first == again == [ScreenFraction(Fraction(k, n + 1)) for k in range(1, n + 1)]
        assert all(a is b for a, b in zip(first, again)) is (n <= 8), n
        assert all(a is b for a, b in zip(first, styled)) is (n <= 8 and n != 2), n
    # what is kept between calls is bounded, whatever the input
    assert set(analysis._EVEN_ROWS) <= set(range(1, 9))


def test_a_named_anchor_folds_to_a_shared_screen_fraction():
    first, after_pan = folded_positions(
        "MS on Anna screen left and Boris screen far right, pan to MS on Anna screen left and Boris."
    )
    (left, far_right), = first
    assert type(left) is ScreenFraction and left == ScreenFraction(Fraction(1, 3))
    assert type(far_right) is ScreenFraction and far_right == ScreenFraction(Fraction(5, 6))
    assert after_pan == [[left, ScreenFraction(Fraction(2, 3))]]
    assert after_pan[0][0] is left


def test_a_programmatic_row_outside_the_frame_is_rejected_when_built():
    with pytest.raises(StylesheetError, match=re.escape("positions.3 must lie inside (0, 1)")):
        Stylesheet(positions_by_cardinality={3: (Fraction(1, 4), Fraction(5, 4), Fraction(1, 2))},
                   figure_height_by_size=DEFAULT_STYLESHEET.figure_height_by_size)


# --- validation -------------------------------------------------------------

def codes_of(text, s=DEFAULT_STYLESHEET):
    sb = parse_ok(text)
    return [d.code for d in validate(sb, s)]


@pytest.mark.parametrize(
    "text,code",
    [
        ("MS on Anna, Boris speaks.", E_OFFSCREEN),
        ("MS on Anna at 2/3 and Boris at 1/3.", E_ORDERING),
        ("MS on Anna, Anna enters from left to MS on Anna.", E_ENTER_ON_SCREEN),
        ("MS on Anna, Boris exits left.", E_EXIT_ABSENT),
        ("MS on Anna, LS on Boris, Anna crosses Boris.", E_BAD_CROSS),
        ("MS on Anna and Anna.", E_DUPLICATE),
        ("MS on Anna, Anna exits left.", E_EXIT_EMPTIES),
        ("MS on Anna and Boris at 1/3.", E_POSITION_CLASH),
        ("MS on Anna, Boris enters from left to CU on Anna.", E_TARGET_MISSING),
    ],
)
def test_continuity_error_codes(text, code):
    assert codes_of(text) == [code]


def test_ordering_error_is_not_doubled_by_the_clash_check():
    assert codes_of("MS on Anna at 2/3 and Boris at 1/3.") == [E_ORDERING]


def test_dropped_subjects_warn():
    assert codes_of("MS on Anna and Boris, pan to CU on Anna.") == [W_DROPPED]
    # an exit is the sanctioned way off screen: no warning
    assert codes_of("MS on Anna and Boris, Boris exits left.") == []


def test_lock_unused_warns():
    assert codes_of("MS on Anna, lock.") == [W_LOCK_UNUSED]
    assert codes_of("MS on Anna, lock, pan with Anna.") == [W_LOCK_UNUSED]
    assert codes_of("MS on Anna, lock, lock, Anna speaks.") == [W_LOCK_UNUSED]
    assert codes_of("MS on Anna, lock, Anna speaks.") == []


def test_missing_duration_warns():
    bare = Stylesheet(duration_by_verb={"speak": Fraction(2)},
                      figure_height_by_size=DEFAULT_STYLESHEET.figure_height_by_size)
    sb = parse_ok("MS on Anna and Boris, Anna speaks, Anna exits left.\nCut to CU on Boris.")
    diagnostics = validate(sb, bare)
    assert [d.code for d in diagnostics] == [W_NO_DURATION, W_NO_DURATION]
    assert all(d.severity is Severity.WARNING for d in diagnostics)
    assert "exit" in diagnostics[0].message
    assert "cut" in diagnostics[1].message


def test_one_failed_event_does_not_cascade():
    # Boris never enters, so the speak fails, but the frame stays usable
    # and the following legal event passes.
    assert codes_of("MS on Anna, Boris speaks, Anna speaks.") == [E_OFFSCREEN]


def test_clean_storyboards_validate_clean():
    assert codes_of("MCU on Anna 3/4 left, LS on Boris, pan with Anna, Anna speaks.") == []
