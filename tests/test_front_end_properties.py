"""Properties of the front end (lexer, parser, formatter) over drawn inputs.

The draws are derandomized, so every run checks the same examples.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from psl.formatter import format_storyboard
from psl.generator import generate_storyboard
from psl.lexer import tokenize
from psl.parser import parse_storyboard

_ALPHABET = st.sampled_from(
    list("MSon Anna,.#\n\r\t\x0c@-/0123456789éΩ ") + ["cut", "to", "close", "up", "medium", "shot"]
)

fixed = settings(derandomize=True, deadline=None)


@fixed
@given(st.text() | st.lists(_ALPHABET).map("".join))
def test_front_end_never_raises(text):
    tokenize(text)
    parse_storyboard(text)


@fixed
@given(st.text() | st.lists(_ALPHABET).map("".join))
def test_lexemes_are_their_spans_in_order(text):
    tokens, _ = tokenize(text)
    raw = text.encode("utf-8")
    for t in tokens:
        assert raw[t.start:t.end].decode("utf-8") == t.lexeme
        assert t.start < t.end
    assert all(a.end <= b.start for a, b in zip(tokens, tokens[1:]))


@fixed
@given(st.randoms(use_true_random=False), st.integers(1, 5), st.sampled_from([" ", "\n", "\t", "\n# note\n"]))
def test_format_of_parse_is_a_fixed_point(rng, depth, blank):
    text = format_storyboard(generate_storyboard(rng, depth))
    # any run of blanks may separate lexemes, comment lines too
    respaced = "".join(word + (blank if rng.random() < 0.3 else " ") for word in text.split(" ")).rstrip(" ")
    for variant in (text, respaced):
        sb, diagnostics = parse_storyboard(variant)
        assert diagnostics == [] and sb is not None, variant
        assert format_storyboard(sb) == text
