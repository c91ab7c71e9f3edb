"""Formatting: canonical text, normalization, and the fixed point."""
from __future__ import annotations

import pytest

from conftest import parse_ok
from psl.formatter import format_composition, format_event, format_storyboard

CANONICAL = [
    # keywords normalize, names keep their spelling
    ("ms ON anna .", "MS on anna."),
    ("medium long shot on Anna.", "MLS on Anna."),
    ("big close up on Anna.", "BCU on Anna."),
    ("CU on Anna 3/4 back left screen far right.", "CU on Anna 3/4 back left screen far right."),
    ("LS on Anna at 2/5 and Boris at 4/5.", "LS on Anna at 2/5 and Boris at 4/5."),
    ("MCU on Anna,LS on Boris and Carla.", "MCU on Anna, LS on Boris and Carla."),
    ("MS on Anna,lock,Anna speaks.", "MS on Anna, lock, Anna speaks."),
    ("MS on Anna, Boris enters from left to MS on Anna and Boris.",
     "MS on Anna, Boris enters from left to MS on Anna and Boris."),
    ("MS on Anna and Boris, Boris reacts.", "MS on Anna and Boris, Boris reacts."),
    ("MS on Anna and Boris, Boris reacts to Anna.", "MS on Anna and Boris, Boris reacts to Anna."),
    ("MS on Anna.\n\n\nCut to CU on Boris.", "MS on Anna.\nCut to CU on Boris."),
    ("MS on Anna.\nDissolve to CU on Anna.", "MS on Anna.\nDissolve to CU on Anna."),
]


@pytest.mark.parametrize("text,want", CANONICAL)
def test_canonical_output(text, want):
    assert format_storyboard(parse_ok(text)) == want


ALL_FORMS = [
    "MS on Anna.",
    "CU on Anna front screen center.",
    "MCU on Anna, LS on Boris and Carla at 7/8.",
    "MS on Anna and Boris, lock, pan with Anna, dolly with Boris, crane to"
    " LS on Anna and Boris, pan to MS on Anna and Boris, continue to MCU on"
    " Anna and Boris, Anna speaks, Boris reacts, Boris reacts to Anna,"
    " Anna uses Boris, Anna touches Boris, Anna crosses Boris, Carla enters"
    " from left to MS on Anna and Boris and Carla, Carla exits right, Anna"
    " moves to MS on Boris and Anna.",
    "VLS on Anna.\nCut to MS on Anna.\nDissolve to CU on Anna 3/4 right.",
    "MS on Anna and Boris, lock, pan with Anna, dolly with Boris,"
    " crane with Anna, crane to LS on Anna and Boris,"
    " dolly to MS on Anna and Boris, pan to MS on Anna and Boris,"
    " continue to MCU on Anna and Boris, Anna speaks, Boris reacts,"
    " Boris reacts to Anna, Anna uses Boris, Anna touches Boris,"
    " Anna crosses Boris, Carla enters from left to MS on Anna and Boris"
    " and Carla, Carla exits right, Anna moves to MS on Boris and Anna.",
]


@pytest.mark.parametrize("text", ALL_FORMS)
def test_format_parse_fixed_point(text):
    sb = parse_ok(text)
    out = format_storyboard(sb)
    sb2 = parse_ok(out)
    assert sb2 == sb          # reparse reproduces the tree
    assert format_storyboard(sb2) == out  # and the text is stable


def test_format_composition_and_event():
    sb = parse_ok("MS on Anna and Boris, Anna crosses Boris.")
    assert format_composition(sb.shots[0].initial) == "MS on Anna and Boris"
    assert format_event(sb.shots[0].events[0]) == "Anna crosses Boris"
