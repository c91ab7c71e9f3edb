"""Stylesheets: defaults, the text format, and validation."""
from __future__ import annotations

from fractions import Fraction

import pytest

from psl.ast import Profile, Size
from psl.stylesheet import (
    DEFAULT_STYLESHEET,
    DURATION_VERBS,
    HOLD_DURATION,
    Stylesheet,
    StylesheetError,
    load_stylesheet,
    parse_stylesheet,
    validate_stylesheet,
)


def test_default_positions():
    s = DEFAULT_STYLESHEET
    assert s.positions_for(1) == (Fraction(1, 2),)
    assert s.positions_for(2) == (Fraction(1, 3), Fraction(2, 3))
    assert s.positions_for(3) == (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def test_positions_fall_back_to_even_spacing():
    assert DEFAULT_STYLESHEET.positions_for(5) == tuple(
        Fraction(k, 6) for k in range(1, 6)
    )


def test_default_durations_and_heights():
    s = DEFAULT_STYLESHEET
    assert set(s.duration_by_verb) == set(DURATION_VERBS)
    assert s.duration_by_verb["speak"] == 2
    assert s.duration_by_verb["lock"] == 0
    assert s.duration_by_verb["cut"] == 0
    assert s.duration_by_verb["dissolve"] == 1
    assert s.figure_height_by_size[Size.BCU] == Fraction(9, 5)
    assert s.figure_height_by_size[Size.VLS] == Fraction(9, 50)
    assert s.default_profile is Profile.FRONT
    assert HOLD_DURATION == 1
    validate_stylesheet(s)


def test_heights_shrink_as_the_shot_widens():
    heights = [DEFAULT_STYLESHEET.figure_height_by_size[size] for size in sorted(Size)]
    assert all(a > b for a, b in zip(heights, heights[1:]))


def test_parse_overlays_only_named_keys():
    s = parse_stylesheet("duration.speak = 3\npositions.2 = 1/4, 3/4\n")
    assert s.duration_by_verb["speak"] == 3
    assert s.duration_by_verb["react"] == DEFAULT_STYLESHEET.duration_by_verb["react"]
    assert s.positions_for(2) == (Fraction(1, 4), Fraction(3, 4))
    assert s.positions_for(1) == (Fraction(1, 2),)


def test_parse_decimals_exactly():
    s = parse_stylesheet("height.MS = 0.8")
    assert s.figure_height_by_size[Size.MS] == Fraction(4, 5)


def test_parse_profile_and_size():
    s = parse_stylesheet("profile = back\nsize = cu\n")
    assert s.default_profile is Profile.BACK
    assert s.default_size is Size.CU


def test_parse_skips_comments_and_blanks():
    s = parse_stylesheet("# note\n\nduration.react = 2\n")
    assert s.duration_by_verb["react"] == 2


@pytest.mark.parametrize(
    "text,hint",
    [
        ("nonsense", "key = value"),
        ("wat = 1", "unknown key"),
        ("profile = sideways", "unknown profile"),
        ("size = XXL", "unknown size"),
        ("height.XXL = 1", "unknown size"),
        ("duration.speak = banana", "bad number"),
        ("positions.x = 1/2", "bad key"),
        ("duration.teleport = 1", "unknown duration verb"),
        ("duration.speak = -1", "must not be negative"),
        ("duration.speak = 0", "must be positive"),
        ("positions.2 = 1/2", "exactly 2 values"),
        ("positions.2 = 2/3, 1/3", "increase left to right"),
        ("positions.1 = 3/2", "inside (0, 1)"),
        ("height.MS = 0", "in (0, 2]"),
        ("height.MS = 1.9", "shrink"),  # MS taller than BCU
    ],
)
def test_bad_stylesheets_are_rejected(text, hint):
    with pytest.raises(StylesheetError, match=None) as exc:
        parse_stylesheet(text)
    assert hint in str(exc.value)


def test_line_numbers_in_messages():
    with pytest.raises(StylesheetError) as exc:
        parse_stylesheet("duration.speak = 3\nwat = 1\n")
    assert "line 2" in str(exc.value)


def test_missing_height_is_rejected():
    bare = Stylesheet()
    with pytest.raises(StylesheetError, match="height.BCU is missing"):
        validate_stylesheet(bare)


def test_load_from_file(tmp_path):
    path = tmp_path / "wide.sheet"
    path.write_text("duration.pan = 5\n", encoding="utf-8")
    s = load_stylesheet(str(path))
    assert s.duration_by_verb["pan"] == 5

