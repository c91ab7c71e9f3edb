"""Rendering: layout geometry and deterministic SVG sketches."""
from __future__ import annotations

from fractions import Fraction
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import render_reference
from conftest import corpus_paths, parse_ok
from psl import render
from psl.ast import Profile, Size
from psl.compiler import compile_storyboard, shot_frames, timeline
from psl.generator import generate_storyboard
from psl.render import (
    CAPTION_BAND,
    FRAME_HEIGHT,
    FRAME_WIDTH,
    Figure,
    layout,
    render_compiled,
    render_frame,
    render_storyboard,
)
from psl.stylesheet import DEFAULT_STYLESHEET

fixed = settings(derandomize=True, deadline=None)


def frame_of(text):
    return shot_frames(parse_ok(text).shots[0])[0]


def test_layout_positions_and_heights():
    l = layout(frame_of("MS on Anna and Boris."))
    assert [f.name for f in l.figures] == ["Anna", "Boris"]
    assert [f.x for f in l.figures] == [Fraction(1, 3), Fraction(2, 3)]
    heights = DEFAULT_STYLESHEET.figure_height_by_size
    assert all(f.height == heights[Size.MS] for f in l.figures)
    assert all(f.facing is Profile.FRONT for f in l.figures)
    assert l.caption == "MS on Anna front at 1/3 and Boris front at 2/3"


def test_layout_draws_background_planes_first():
    l = layout(frame_of("MCU on Anna, LS on Boris and Carla."))
    assert [f.name for f in l.figures] == ["Boris", "Carla", "Anna"]
    assert [f.plane for f in l.figures] == [1, 1, 0]


def test_layout_requires_a_fully_specified_composition():
    bare = parse_ok("MS on Anna.").shots[0].initial
    with pytest.raises(ValueError):
        layout(bare)


def test_render_frame_structure():
    l = layout(frame_of("MS on Anna and Boris."))
    svg = render_frame(l)
    assert svg.startswith("<svg")
    assert svg.endswith("\n")
    assert f'width="{FRAME_WIDTH}"' in svg
    assert f'height="{FRAME_HEIGHT + CAPTION_BAND}"' in svg
    assert svg.count("<circle") == 2  # one head per figure
    assert 'clip-path="url(#frame-clip)"' in svg
    assert "MS on Anna front at 1/3 and Boris front at 2/3" in svg
    assert "-0.00" not in svg


def test_render_frame_stamp():
    l = layout(frame_of("MS on Anna."))
    assert "in transition" not in render_frame(l)
    assert "in transition" in render_frame(l, stamp="in transition")


def test_back_profile_has_no_nose_tick():
    facing = render_frame(layout(frame_of("MS on Anna.")))
    away = render_frame(layout(frame_of("MS on Anna back.")))
    # the nose is the only extra line; count line elements
    assert facing.count("<line") == away.count("<line") + 1


def test_taller_sizes_pin_the_head_instead_of_the_feet():
    # a BCU figure is 1.8 frame heights tall: its head stays near the top
    bcu = render_frame(layout(frame_of("BCU on Anna.")))
    vls = render_frame(layout(frame_of("VLS on Anna.")))
    assert bcu != vls
    assert bcu.count("<circle") == vls.count("<circle") == 1


def test_figure_count_matches_subject_count_across_the_corpus():
    for path in corpus_paths():
        sb = parse_ok(path.read_text(encoding="utf-8"))
        for shot in sb.shots:
            for frame in shot_frames(shot):
                l = layout(frame)
                assert len(l.figures) == len(frame.subject_names()), path.name


def test_rendering_is_deterministic():
    sb = parse_ok("MS on Anna and Boris, Anna crosses Boris.\nCut to CU on Anna.")
    first = render_storyboard(sb)
    second = render_storyboard(sb)
    assert [(f.filename, f.svg) for f in first] == [(f.filename, f.svg) for f in second]


def test_filenames_are_per_shot_counters():
    sb = parse_ok("MS on Anna and Boris, Anna crosses Boris.\nCut to CU on Anna.")
    frames = render_storyboard(sb)
    assert [f.filename for f in frames] == [
        "shot01_frame01.svg",  # the cross, stamped
        "shot01_frame02.svg",  # the settled two-shot
        "shot02_frame01.svg",  # after the cut
    ]


def test_zero_length_cut_markers_are_not_rendered():
    sb = parse_ok("MS on Anna.\nCut to CU on Anna.")
    frames = render_storyboard(sb)
    assert len(frames) == 2


def test_in_transition_frames_are_stamped():
    sb = parse_ok("MS on Anna and Boris, Anna crosses Boris.")
    frames = render_storyboard(sb)
    assert "in transition" in frames[0].svg
    assert "in transition" not in frames[1].svg


def test_every_corpus_frame_renders():
    for path in corpus_paths():
        sb = parse_ok(path.read_text(encoding="utf-8"))
        for frame in render_storyboard(sb):
            assert frame.svg.startswith("<svg"), path.name
            assert frame.filename.endswith(".svg")


# --- the local helpers against what they replace -------------------------

@fixed
@given(st.text() | st.lists(st.sampled_from(["&", "<", ">", "&amp;", '"', "'", "a"])).map("".join))
def test_escape_matches_saxutils(text):
    assert render._escape(text) == escape(text)


def rounded_then_formatted(value):
    return f"{round(value, 2) + 0.0:.2f}"


def filled(value):
    """One coordinate as a figure prints it, in a quoted ``%.2f`` field."""
    return render._fill('x="%.2f"', (value,))


@fixed
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_matches_rounding_then_formatting(value):
    assert filled(value) == f'x="{rounded_then_formatted(value)}"'
    assert render_reference._fmt(value) == rounded_then_formatted(value)


@pytest.mark.parametrize(
    "value, text",
    [
        (-0.0, "0.00"),
        (-0.004, "0.00"),
        (-0.005, "-0.01"),  # the double lies just below -0.005
        (0.005, "0.01"),    # and this one just above 0.005
        (2.675, "2.67"),    # the double lies just below 2.675
        (1e15 + 0.125, "1000000000000000.12"),  # an exact tie goes to even
    ],
)
def test_fmt_edge_values(value, text):
    assert filled(value) == f'x="{text}"'
    assert render_reference._fmt(value) == rounded_then_formatted(value) == text


def test_a_name_that_reads_minus_zero_is_kept():
    fig = Figure('"-0.00"', Fraction(1, 2), Fraction(1), Profile.FRONT, 0)
    svg = render._figure_svg(fig)
    assert svg == render_reference._figure_svg(fig)
    assert svg.startswith('<g class="figure" data-name=""-0.00"" opacity="1.00"')


#: How far left of its centre a hand and a foot reach, as a fraction of the
#: frame width, per unit of figure height (a fraction of the frame height).
_REACH = tuple(Fraction(reach, 100) * FRAME_HEIGHT / FRAME_WIDTH for reach in (16, 10))


@st.composite
def figures(draw):
    """Any figure, a third of them placed so that a hand or a foot lands
    within half a hundredth of a pixel left of the frame's left edge."""
    height = draw(st.fractions(Fraction(1, 100), 2, max_denominator=1000))
    x = draw(st.fractions(Fraction(1, 1000), Fraction(999, 1000), max_denominator=10**6))
    if draw(st.integers(0, 2)) == 0:
        reach = draw(st.sampled_from(_REACH)) * height
        x = reach - draw(st.fractions(0, Fraction(1, 200), max_denominator=1000)) / FRAME_WIDTH
        x = max(x, Fraction(1, 10**9))
    name = draw(st.text(max_size=8))
    return Figure(name, x, height, draw(st.sampled_from(list(Profile))), draw(st.integers(0, 3)))


@fixed
@given(figures())
def test_a_figure_draws_as_the_reference_does(fig):
    assert render._figure_svg(fig) == render_reference._figure_svg(fig)


def test_the_figure_property_reaches_minus_zero():
    """The near-edge placement above does print "-0.00" before the mapping."""
    height = Fraction(1)
    fig = Figure("Anna", _REACH[0] * height - Fraction(1, 1000) / FRAME_WIDTH, height,
                 Profile.FRONT, 0)
    assert f"{float(fig.x) * FRAME_WIDTH - 0.16 * float(height) * FRAME_HEIGHT:.2f}" == "-0.00"
    assert 'x2="0.00"' in render._figure_svg(fig) == render_reference._figure_svg(fig)


# --- render_compiled on generated boards ---------------------------------

@fixed
@given(st.randoms(use_true_random=False), st.integers(1, 6))
def test_render_is_deterministic_and_matches_unmemoised_frames(rng, depth):
    compiled = compile_storyboard(generate_storyboard(rng, depth))
    frames = render_compiled(compiled)
    again = render_compiled(compiled)
    assert [(f.filename, f.svg) for f in frames] == [(f.filename, f.svg) for f in again]
    s = compiled.stylesheet
    assert [f.svg for f in frames] == [
        render_frame(layout(e.composition, s), "in transition" if e.in_transition else None)
        for e in timeline(compiled)
        if e.t0 != e.t1
    ]
