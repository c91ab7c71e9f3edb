"""Parsing: tree shapes, spans, error codes, and recovery."""
from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import parse_ok
from psl.ast import (
    ContinueTo,
    CraneTo,
    Cross,
    DollyWith,
    Enter,
    Exit,
    Lock,
    Move,
    PanTo,
    PanWith,
    Profile,
    React,
    ScreenAnchor,
    ScreenFraction,
    ShotTransition,
    Side,
    Size,
    Speak,
    Touch,
    Use,
)
from psl.diagnostics import E_EMPTY, E_NUMBER_RANGE, E_SYNTAX, Severity
from psl.parser import parse_storyboard


def test_minimal_shot():
    sb = parse_ok("MS on Anna.")
    assert len(sb.shots) == 1 and sb.joins == ()
    shot = sb.shots[0]
    assert shot.events == ()
    (plane,) = shot.initial.planes
    assert plane.size is Size.MS
    (subject,) = plane.subjects
    assert subject.name == "Anna"
    assert subject.profile is None and subject.screen is None
    assert (shot.span.start, shot.span.end) == (0, 11)


@pytest.mark.parametrize(
    "text,profile",
    [
        ("front", Profile.FRONT),
        ("back", Profile.BACK),
        ("left", Profile.LEFT),
        ("right", Profile.RIGHT),
        ("3/4 left", Profile.THREE_QUARTER_LEFT),
        ("3/4 right", Profile.THREE_QUARTER_RIGHT),
        ("3/4 back left", Profile.THREE_QUARTER_BACK_LEFT),
        ("3/4 back right", Profile.THREE_QUARTER_BACK_RIGHT),
    ],
)
def test_profiles(text, profile):
    sb = parse_ok(f"CU on Anna {text}.")
    assert sb.shots[0].initial.planes[0].subjects[0].profile is profile


@pytest.mark.parametrize(
    "text,screen",
    [
        ("screen far left", ScreenAnchor.FAR_LEFT),
        ("screen left", ScreenAnchor.LEFT),
        ("screen center", ScreenAnchor.CENTER),
        ("screen right", ScreenAnchor.RIGHT),
        ("screen far right", ScreenAnchor.FAR_RIGHT),
        ("at 2/5", ScreenFraction(Fraction(2, 5))),
    ],
)
def test_screen_positions(text, screen):
    sb = parse_ok(f"CU on Anna {text}.")
    assert sb.shots[0].initial.planes[0].subjects[0].screen == screen


def test_profile_and_screen_together():
    sb = parse_ok("CU on Anna 3/4 back left screen far right.")
    subject = sb.shots[0].initial.planes[0].subjects[0]
    assert subject.profile is Profile.THREE_QUARTER_BACK_LEFT
    assert subject.screen is ScreenAnchor.FAR_RIGHT


def test_multi_plane_composition():
    sb = parse_ok("MCU on Anna, LS on Boris and Carla.")
    planes = sb.shots[0].initial.planes
    assert [p.size for p in planes] == [Size.MCU, Size.LS]
    assert [s.name for s in planes[1].subjects] == ["Boris", "Carla"]


def test_every_event_form():
    sb = parse_ok(
        "MS on Anna and Boris and Prop, lock, pan with Anna, dolly with Boris,"
        " crane to LS on Anna and Boris and Prop, pan to MS on Anna and Boris and Prop,"
        " continue to MCU on Anna and Boris and Prop,"
        " Anna speaks, Boris reacts, Boris reacts to Anna, Anna uses Prop,"
        " Boris touches Prop, Anna crosses Boris,"
        " Carla enters from left to MCU on Anna and Boris and Prop and Carla,"
        " Carla exits right, Anna moves to MCU on Boris and Anna and Prop and Carla."
    )
    events = sb.shots[0].events
    assert isinstance(events[0], Lock)
    assert isinstance(events[1], PanWith) and events[1].subject.name == "Anna"
    assert isinstance(events[2], DollyWith)
    assert isinstance(events[3], CraneTo)
    assert isinstance(events[4], PanTo)
    assert isinstance(events[5], ContinueTo)
    assert isinstance(events[6], Speak) and events[6].actor == "Anna"
    assert isinstance(events[7], React) and events[7].to is None
    assert isinstance(events[8], React) and events[8].to == "Anna"
    assert isinstance(events[9], Use) and events[9].prop == "Prop"
    assert isinstance(events[10], Touch)
    assert isinstance(events[11], Cross) and events[11].other == "Boris"
    assert isinstance(events[12], Enter) and events[12].side is Side.LEFT
    assert isinstance(events[13], Exit) and events[13].side is Side.RIGHT
    assert isinstance(events[14], Move)


def test_joins():
    sb = parse_ok("MS on Anna.\nCut to CU on Boris.\nDissolve to LS on Carla.")
    assert len(sb.shots) == 3
    assert sb.joins == (ShotTransition.CUT, ShotTransition.DISSOLVE)


@pytest.mark.parametrize("text", ["", "   \n\t", "# just a comment\n"])
def test_empty_input(text):
    sb, diagnostics = parse_storyboard(text)
    assert sb is None
    assert [d.code for d in diagnostics] == [E_EMPTY]


def test_missing_period():
    sb, diagnostics = parse_storyboard("MS on Anna")
    assert sb is None
    assert [d.code for d in diagnostics] == [E_SYNTAX]
    assert "end of input" in diagnostics[0].message


def test_fraction_out_of_range():
    for bad in ["7/6", "1/1", "0/5"]:
        sb, diagnostics = parse_storyboard(f"MS on Anna at {bad}.")
        assert sb is None
        assert [d.code for d in diagnostics] == [E_NUMBER_RANGE], bad


def test_one_diagnostic_per_bad_shot():
    sb, diagnostics = parse_storyboard("on Anna.\non Boris.\n")
    assert sb is None
    assert [d.code for d in diagnostics] == [E_SYNTAX, E_SYNTAX]


def test_recovery_error_in_first_shot_still_reads_on():
    # the bad shot costs one diagnostic; recovery resumes at the period
    sb, diagnostics = parse_storyboard("MS on Anna at 7/6, Anna speaks.\nCut to CU on Anna.")
    assert sb is None
    assert [d.code for d in diagnostics] == [E_NUMBER_RANGE]


def test_errors_leave_no_tree_even_with_good_shots():
    sb, diagnostics = parse_storyboard("MS on Anna.\nxx.\nCut to CU on Boris.")
    assert sb is None
    assert [d.code for d in diagnostics] == [E_SYNTAX]


def test_diagnostics_are_ordered_by_span():
    _, diagnostics = parse_storyboard("on Anna.\non Boris.\n")
    starts = [d.span.start for d in diagnostics]
    assert starts == sorted(starts)


def test_warning_free_parse_has_no_diagnostics():
    _, diagnostics = parse_storyboard("MS on Anna, Anna speaks.")
    assert diagnostics == []


def test_spans_cover_events():
    text = "MS on Anna, Anna speaks."
    sb = parse_ok(text)
    e = sb.shots[0].events[0]
    assert text[e.span.start:e.span.end] == "Anna speaks"


def test_reserved_word_is_not_a_name():
    sb, diagnostics = parse_storyboard("MS on shot.")
    assert sb is None
    assert [d.code for d in diagnostics] == [E_SYNTAX]
    assert any(d.severity is Severity.ERROR for d in diagnostics)
