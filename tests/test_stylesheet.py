"""Stylesheets: defaults, the text format, and validation."""
from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_paths, parse_ok
from psl.analysis import validate
from psl.ast import Profile, Size
from psl.compiler import compile_storyboard, timeline
from psl.jsonio import net_json, timeline_json
from psl.render import render_compiled
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
    assert parse_stylesheet("profile = back\n").default_profile is Profile.BACK
    with pytest.raises(StylesheetError, match="line 2: unknown key 'size'"):
        parse_stylesheet("profile = back\nsize = cu\n")


def test_parse_skips_comments_and_blanks():
    s = parse_stylesheet("# note\n\nduration.react = 2\n")
    assert s.duration_by_verb["react"] == 2


@pytest.mark.parametrize(
    "text,hint",
    [
        ("nonsense", "key = value"),
        ("wat = 1", "unknown key"),
        ("profile = sideways", "unknown profile"),
        ("size = XXL", "unknown key"),
        ("height.XXL = 1", "unknown size"),
        ("duration.speak = banana", "bad number"),
        ("duration.speak = 1e5000", "bad number"),
        ("duration.speak = 1_000", "bad number"),
        ("duration.speak = \u0663", "bad number"),  # ARABIC-INDIC DIGIT THREE
        ("positions.1 = 1e-5000", "bad number"),
        ("positions.-1 = 1/2", "positions.-1: the count must be at least 1"),
        ("positions.0 = 1/2", "positions.0: the count must be at least 1"),
        ("positions.x = 1/2", "bad key"),
        ("positions.\u0662 = 1/4, 3/4", "bad key"),  # ARABIC-INDIC DIGIT TWO
        ("positions.1_0 = 1/2", "bad key"),
        ("positions.+2 = 1/4, 3/4", "bad key"),
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


def built(positions=None, durations=None, heights=None, profile=Profile.FRONT):
    """A sheet built in code, each table laid over ``DEFAULT_STYLESHEET``'s."""
    s = DEFAULT_STYLESHEET
    return Stylesheet(profile, {**s.positions_by_cardinality, **(positions or {})},
                      {**s.duration_by_verb, **(durations or {})},
                      {**s.figure_height_by_size, **(heights or {})})


#: The validation-stage cases above, as the tables a caller would build.
_BUILT_LIKE_FILES = [
    ("positions.-1 = 1/2", dict(positions={-1: (Fraction(1, 2),)})),
    ("positions.0 = 1/2", dict(positions={0: (Fraction(1, 2),)})),
    ("duration.teleport = 1", dict(durations={"teleport": Fraction(1)})),
    ("duration.speak = -1", dict(durations={"speak": Fraction(-1)})),
    ("duration.speak = 0", dict(durations={"speak": Fraction(0)})),
    ("positions.2 = 1/2", dict(positions={2: (Fraction(1, 2),)})),
    ("positions.2 = 2/3, 1/3", dict(positions={2: (Fraction(2, 3), Fraction(1, 3))})),
    ("positions.1 = 3/2", dict(positions={1: (Fraction(3, 2),)})),
    ("height.MS = 0", dict(heights={Size.MS: Fraction(0)})),
    ("height.MS = 1.9", dict(heights={Size.MS: Fraction(19, 10)})),
]


@pytest.mark.parametrize("text,tables", _BUILT_LIKE_FILES, ids=[t for t, _ in _BUILT_LIKE_FILES])
def test_a_sheet_built_in_code_fails_as_its_file_does(text, tables):
    with pytest.raises(StylesheetError) as from_file:
        parse_stylesheet(text)
    with pytest.raises(StylesheetError) as from_code:
        built(**tables)
    assert str(from_code.value) == str(from_file.value)


@pytest.mark.parametrize(
    "tables,message",
    [
        (dict(positions={3: (Fraction(1, 4),)}), "positions.3 must list exactly 3 values"),
        (dict(positions={3: (Fraction(1, 4), Fraction(5, 4), Fraction(1, 2))}),
         "positions.3 must lie inside (0, 1)"),
        (dict(positions={2: (0.25, 0.75)}), "positions.2 must be exact numbers"),
        (dict(positions={4: (0.125, 0.375, 0.625, 0.875)}), "positions.4 must be exact numbers"),
        (dict(durations={"speak": 2.0}), "duration.speak must be an exact number"),
        (dict(heights={Size.MS: 0.75}), "height.MS must be an exact number"),
    ],
)
def test_tables_built_in_code_are_checked(tables, message):
    with pytest.raises(StylesheetError, match=re.escape(message)):
        built(**tables)


def test_a_sheet_built_in_code_runs_the_whole_pipeline():
    """Int and Fraction numbers, a row of its own, a left profile and no
    duration for ``exit``: every corpus board goes through every stage."""
    durations = {verb: 2 if d else 0 for verb, d in DEFAULT_STYLESHEET.duration_by_verb.items()}
    del durations["exit"]
    heights = {size: Fraction(h) for size, h in DEFAULT_STYLESHEET.figure_height_by_size.items()}
    s = Stylesheet(Profile.LEFT, {2: (Fraction(1, 5), Fraction(4, 5))}, durations, heights)
    codes = []
    for path in corpus_paths():
        board = parse_ok(path.read_text(encoding="utf-8"))
        codes += [d.code for d in validate(board, s)]
        compiled = compile_storyboard(board, s)
        entries = timeline(compiled)
        assert net_json(compiled) and timeline_json(entries)
        assert render_compiled(compiled), path
    assert codes and set(codes) == {"W203"}


def test_line_numbers_in_messages():
    with pytest.raises(StylesheetError) as exc:
        parse_stylesheet("duration.speak = 3\nwat = 1\n")
    assert "line 2" in str(exc.value)


def test_missing_height_is_rejected():
    with pytest.raises(StylesheetError, match="height.BCU is missing"):
        Stylesheet()


def test_load_from_file(tmp_path):
    path = tmp_path / "wide.sheet"
    path.write_text("duration.pan = 5\n", encoding="utf-8")
    s = load_stylesheet(str(path))
    assert s.duration_by_verb["pan"] == 5


def test_load_skips_one_leading_byte_order_mark(tmp_path):
    path = tmp_path / "marked.sheet"
    path.write_bytes(b"\xef\xbb\xbfprofile = left\n")
    assert load_stylesheet(str(path)).default_profile is Profile.LEFT


def test_load_rejects_non_utf8_and_passes_on_os_errors(tmp_path):
    path = tmp_path / "latin1.sheet"
    path.write_bytes(b"profile = \xff\n")
    with pytest.raises(StylesheetError, match="latin1.sheet is not valid UTF-8"):
        load_stylesheet(str(path))
    with pytest.raises(OSError):
        load_stylesheet(str(tmp_path / "missing.sheet"))


# --- mutated stylesheets -------------------------------------------------

BENCH_STYLE = Path(__file__).resolve().parent.parent / "perfbench" / "bench.style"
DEFAULT_KEYS = "\n".join(
    [f"profile = {DEFAULT_STYLESHEET.default_profile.value}"]
    + [f"positions.{n} = {', '.join(map(str, DEFAULT_STYLESHEET.positions_for(n)))}"
       for n in (1, 2, 3)]
    + [f"duration.{verb} = {d}" for verb, d in DEFAULT_STYLESHEET.duration_by_verb.items()]
    + [f"height.{size.name.lower()} = {h}"
       for size, h in DEFAULT_STYLESHEET.figure_height_by_size.items()]
)
#: Single characters, plus a few fragments that one character cannot reach.
_EDITS = (
    st.sampled_from(["/0", "0/", "٢", "positions.", "height."])
    | st.sampled_from(list("=.,/#-+_e \n\t0123456789"))
    | st.characters()
)


@st.composite
def mutated_stylesheets(draw):
    """A valid stylesheet after one to eight edits, each inserting,
    deleting or replacing text at one place in one line.  Edits favour
    the ends of lines, where a key starts and a value ends."""
    lines = draw(st.sampled_from([BENCH_STYLE.read_text(encoding="utf-8"), DEFAULT_KEYS]))
    lines = lines.splitlines()
    for _ in range(draw(st.integers(1, 8))):
        row = draw(st.integers(0, len(lines) - 1))
        line = lines[row]
        at = draw(st.sampled_from([0, len(line)]) | st.integers(0, len(line)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        kept = line[at:] if edit == "insert" else line[at + 1:]
        lines[row] = line[:at] + ("" if edit == "delete" else draw(_EDITS)) + kept
    return "\n".join(lines)


def test_the_unmutated_stylesheets_parse():
    assert parse_stylesheet(BENCH_STYLE.read_text(encoding="utf-8")).duration_by_verb["pan"] == 2
    sheet, default = parse_stylesheet(DEFAULT_KEYS), DEFAULT_STYLESHEET
    assert sheet.default_profile is default.default_profile
    assert sheet.duration_by_verb == default.duration_by_verb
    assert sheet.figure_height_by_size == default.figure_height_by_size
    assert [sheet.positions_for(n) for n in (1, 2, 3, 4)] == [
        default.positions_for(n) for n in (1, 2, 3, 4)
    ]


@settings(derandomize=True, deadline=None)
@given(mutated_stylesheets())
def test_mutated_stylesheets_parse_or_raise_stylesheet_error(text):
    try:
        sheet = parse_stylesheet(text)
    except StylesheetError:
        return
    assert isinstance(sheet, Stylesheet)


# --- line breaks ---------------------------------------------------------

#: Characters ``str.splitlines`` breaks at besides LF and CR.
OTHER_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("sep", OTHER_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_only_a_line_feed_ends_a_line(sep):
    commented = parse_stylesheet(f"# old{sep}duration.speak = 9\n")
    assert commented.duration_by_verb["speak"] == 2
    with pytest.raises(StylesheetError, match="^line 2: expected 'key = value'$"):
        parse_stylesheet(f"profile = front\n{sep}bogus\n")


def test_crlf_line_endings_parse():
    s = parse_stylesheet("profile = back\r\n\r\nduration.speak = 3\r\n")
    assert (s.default_profile, s.duration_by_verb["speak"]) == (Profile.BACK, 3)


def test_a_lone_cr_does_not_end_a_line(tmp_path):
    path = tmp_path / "mac.sheet"
    path.write_bytes(b"# old\rduration.speak = 9\nprofile = back\rheight.MS = 0.7\n")
    with pytest.raises(StylesheetError) as exc:
        load_stylesheet(str(path))
    assert str(exc.value) == "line 2: unknown profile 'back\\rheight.MS = 0.7'"
    with pytest.raises(StylesheetError) as exc:
        parse_stylesheet(path.read_bytes().decode())
    assert str(exc.value) == "line 2: unknown profile 'back\\rheight.MS = 0.7'"
