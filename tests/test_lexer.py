"""Lexing: token kinds, byte spans, phrase merging, and bad input."""
from __future__ import annotations

import random
import time
from fractions import Fraction
from unittest import mock

from conftest import broken_paths, corpus_paths
from hypothesis import given, settings
from hypothesis import strategies as st

from psl.ast import Size
from psl.diagnostics import E_BAD_CHAR, E_BAD_WORD, E_NUMBER_RANGE, Span
from psl.formatter import format_storyboard
from psl.generator import generate_storyboard
from psl import lexer
from psl.lexer import _PHRASES, _SPELLINGS, _WORDS, Token, TokenKind, _classify, lex, tokenize
from psl.parser import parse_storyboard


def kinds(text: str) -> list[TokenKind]:
    tokens, diagnostics = tokenize(text)
    assert not diagnostics, [d.to_dict() for d in diagnostics]
    return [t.kind for t in tokens]


def test_simple_sentence():
    tokens, diagnostics = tokenize("MS on Anna.")
    assert not diagnostics
    assert [t.kind for t in tokens] == [
        TokenKind.SIZE, TokenKind.ON, TokenKind.IDENT, TokenKind.PERIOD,
    ]
    assert tokens[0].value is Size.MS
    assert tokens[2].value == "Anna"
    assert [(t.start, t.end) for t in tokens] == [(0, 2), (3, 5), (6, 10), (10, 11)]


def test_keywords_are_case_insensitive_names_keep_spelling():
    tokens, _ = tokenize("ms ON anna")
    assert [t.kind for t in tokens] == [TokenKind.SIZE, TokenKind.ON, TokenKind.IDENT]
    assert tokens[2].value == "anna"


def test_long_size_forms_merge_to_one_token():
    for text, size in [
        ("medium long shot", Size.MLS),
        ("medium shot", Size.MS),
        ("long shot", Size.LS),
        ("very long shot", Size.VLS),
        ("close-up", Size.CU),
        ("close up", Size.CU),
        ("big close-up", Size.BCU),
        ("big close up", Size.BCU),
        ("medium close-up", Size.MCU),
        ("medium close up", Size.MCU),
    ]:
        tokens, diagnostics = tokenize(text)
        assert not diagnostics
        assert len(tokens) == 1 and tokens[0].kind is TokenKind.SIZE, text
        assert tokens[0].value is size
        assert tokens[0].lexeme == text  # original spelling survives


def test_longest_phrase_wins():
    # "medium close up" must not split into "medium" + "close up"
    tokens, _ = tokenize("medium close up on Anna")
    assert tokens[0].kind is TokenKind.SIZE and tokens[0].value is Size.MCU


def test_no_word_that_ends_a_phrase_opens_or_continues_one():
    # the lexer merges a phrase at its last word, longest first; under this
    # condition that finds the phrases a longest match from the first word would
    finals = {words[-1] for words in _PHRASES}
    inner = {word for words in _PHRASES for word in words[:-1]}
    assert finals and inner and not finals & inner


def test_join_phrases():
    assert kinds("Cut to") == [TokenKind.CUT_TO]
    assert kinds("Dissolve to") == [TokenKind.DISSOLVE_TO]
    assert kinds("continue to") == [TokenKind.CONTINUE_TO]


def test_phrase_fragments_are_reserved_not_names():
    tokens, diagnostics = tokenize("cut shot medium")
    assert not diagnostics
    assert all(t.kind is TokenKind.RESERVED for t in tokens)


def test_fraction_token():
    tokens, diagnostics = tokenize("at 1/3")
    assert not diagnostics
    assert tokens[1].kind is TokenKind.FRACTION
    assert tokens[1].value == Fraction(1, 3)


def test_bare_integer_is_an_error():
    tokens, diagnostics = tokenize("at 12 ")
    assert [d.code for d in diagnostics] == [E_BAD_CHAR]
    assert "expected a fraction like 1/3" in diagnostics[0].message
    assert [t.kind for t in tokens] == [TokenKind.AT]


def test_zero_denominator():
    _, diagnostics = tokenize("at 1/0")
    assert [d.code for d in diagnostics] == [E_NUMBER_RANGE]
    assert diagnostics[0].message == "fraction denominator is zero"


def test_bad_characters_merge_into_one_run():
    tokens, diagnostics = tokenize("MS @@% on")
    assert [d.code for d in diagnostics] == [E_BAD_CHAR]
    assert (diagnostics[0].span.start, diagnostics[0].span.end) == (3, 6)
    assert [t.kind for t in tokens] == [TokenKind.SIZE, TokenKind.ON]


def test_hyphenated_non_keyword_is_rejected():
    tokens, diagnostics = tokenize("Anna stage-left")
    assert [d.code for d in diagnostics] == [E_BAD_WORD]
    assert "stage-left" in diagnostics[0].message
    assert [t.kind for t in tokens] == [TokenKind.IDENT]


def test_a_repeated_lexeme_is_reported_and_spanned_at_each_place():
    # The lexer classifies each spelling once per call; every occurrence
    # still gets its own token or diagnostic.
    text = "at 1/0 @ x-y at 1/0 @ x-y, 2/4 Anna 2/4 anna"
    tokens, diagnostics = tokenize(text)
    assert [(d.code, d.span.start) for d in diagnostics] == [
        (E_NUMBER_RANGE, 3), (E_BAD_CHAR, 7), (E_NUMBER_RANGE, 16), (E_BAD_CHAR, 20),
        (E_BAD_WORD, 9), (E_BAD_WORD, 22),
    ]
    assert [(t.lexeme, t.start, t.value) for t in tokens if t.kind is not TokenKind.AT] == [
        (",", 25, None), ("2/4", 27, Fraction(1, 2)), ("Anna", 31, "Anna"),
        ("2/4", 36, Fraction(1, 2)), ("anna", 40, "anna"),
    ]


def test_comment_lines_are_skipped():
    with_comment = "# a note\nMS on Anna.\n"
    without = "MS on Anna.\n"
    got = [(t.kind, t.lexeme) for t in tokenize(with_comment)[0]]
    want = [(t.kind, t.lexeme) for t in tokenize(without)[0]]
    assert got == want


def test_hash_mid_line_is_a_bad_character():
    _, diagnostics = tokenize("MS # x on Anna.")
    assert any(d.code == E_BAD_CHAR for d in diagnostics)


def test_spans_are_byte_offsets_for_non_ascii():
    text = "MS on Zoé."
    tokens, diagnostics = tokenize(text)
    # "Zo" is a name, the accented letter is outside the alphabet
    assert [d.code for d in diagnostics] == [E_BAD_CHAR]
    assert (diagnostics[0].span.start, diagnostics[0].span.end) == (8, 10)
    period = tokens[-1]
    assert (period.start, period.end) == (10, 11)
    raw = text.encode("utf-8")
    for t in tokens:
        assert raw[t.start:t.end].decode("utf-8") == t.lexeme


def test_a_non_ascii_line_in_front_only_shifts_every_span():
    # an ASCII source and a non-ASCII one take their byte offsets in different ways
    prefix = "# \u00e9\n"
    shift = len(prefix.encode("utf-8"))
    rng = random.Random(7)
    texts = [path.read_text(encoding="utf-8") for path in corpus_paths() + broken_paths()]
    texts += [format_storyboard(generate_storyboard(rng, rng.randint(1, 6))) for _ in range(50)]
    for text in texts:
        assert text.isascii()
        tokens, diagnostics = tokenize(text)
        shifted_tokens, shifted_diagnostics = tokenize(prefix + text)
        assert [(t.kind, t.lexeme, t.start + shift, t.end + shift, type(t.value), t.value) for t in tokens] == [
            (t.kind, t.lexeme, t.start, t.end, type(t.value), t.value) for t in shifted_tokens
        ]
        assert [(d.code, d.message, d.span.start + shift, d.span.end + shift) for d in diagnostics] == [
            (d.code, d.message, d.span.start, d.span.end) for d in shifted_diagnostics
        ]


def test_a_lone_surrogate_is_a_bad_character_three_bytes_wide():
    # no UTF-8 form exists; the span counts the three bytes of its
    # surrogatepass form, so the offsets after it are the same as for U+FFFD
    text = "MS on Anna\ud800."
    tokens, diagnostics = tokenize(text)
    assert [d.code for d in diagnostics] == [E_BAD_CHAR]
    assert (diagnostics[0].span.start, diagnostics[0].span.end) == (10, 13)
    assert diagnostics[0].message == "unexpected character '\\ud800'"
    assert (tokens[-1].kind, tokens[-1].start, tokens[-1].end) == (TokenKind.PERIOD, 13, 14)
    assert tokenize(text.replace("\ud800", "\ufffd"))[0] == tokens
    sb, parsed = parse_storyboard(text)
    assert sb is None and parsed == diagnostics


def test_lexemes_reproduce_their_source_slice():
    text = "MCU on Anna 3/4 left, LS on Boris at 2/5, pan with Anna.\nCut to CU on Carla."
    tokens, diagnostics = tokenize(text)
    assert not diagnostics
    raw = text.encode("utf-8")
    for t in tokens:
        assert raw[t.start:t.end].decode("utf-8") == t.lexeme
    # spans come in order and never overlap
    offsets = [(t.start, t.end) for t in tokens]
    assert offsets == sorted(offsets)
    assert all(a[1] <= b[0] for a, b in zip(offsets, offsets[1:]))


def test_phrase_words_merge_across_bad_characters_and_comments():
    tokens, diagnostics = tokenize("cut @ to")
    assert [(t.kind, t.lexeme, t.start, t.end) for t in tokens] == [(TokenKind.CUT_TO, "cut @ to", 0, 8)]
    assert [(d.code, d.span.start, d.span.end) for d in diagnostics] == [(E_BAD_CHAR, 4, 5)]
    tokens, _ = tokenize("Zoé medium\n# note\nlong shot")
    assert [(t.kind, t.lexeme, t.start, t.end) for t in tokens] == [
        (TokenKind.IDENT, "Zo", 0, 2),
        (TokenKind.SIZE, "medium\n# note\nlong shot", 5, 28),
    ]


def test_blanks_outside_the_alphabet_still_open_a_comment():
    # U+00A0 and form feed are blanks (str.isspace) but not lexer whitespace
    for blank in ("\u00a0", "\x0c", " \x0c\t"):
        tokens, diagnostics = tokenize(f"{blank}# note, on\nMS on Anna.")
        assert [t.lexeme for t in tokens] == ["MS", "on", "Anna", "."]
        assert [d.code for d in diagnostics] == [E_BAD_CHAR]


def test_a_line_of_many_hashes_lexes_in_linear_time():
    # '#' after a word is a bad character, however many there are; deciding
    # that once per '#' by rescanning the line took over a second at this size
    for filler in ("#" * 200_000, "@#" * 100_000):
        started = time.perf_counter()
        tokens, diagnostics = tokenize(f"MS on Anna {filler}.")
        assert time.perf_counter() - started < 0.5
        assert [(d.code, d.span.start, d.span.end) for d in diagnostics] == [(E_BAD_CHAR, 11, 200_011)]
        assert [t.kind for t in tokens] == [
            TokenKind.SIZE, TokenKind.ON, TokenKind.IDENT, TokenKind.PERIOD,
        ]


def test_each_spelling_in_the_table_classifies_as_it_would_alone():
    assert _SPELLINGS
    for spelling, hit in _SPELLINGS.items():
        assert hit == _classify(spelling), spelling
    assert {"MS", "Ms", "ms", "Cut", "CLOSE-UP", "Close-up", ","} <= _SPELLINGS.keys()
    before = dict(_SPELLINGS)
    tokenize("Cut to MS on Zoe, Bob. ms on ZOE, 1/3 ~ Zoe-x.")
    assert _SPELLINGS == before  # a call classifies into its own copy


def _any_case(word: str) -> st.SearchStrategy[str]:
    """``word`` as the table spells it, or in a mix of cases it does not hold."""
    return st.sampled_from((word, word.capitalize(), word.upper())) | st.tuples(
        *(st.sampled_from((c.lower(), c.upper())) for c in word)).map("".join)


_LEXEMES = st.one_of(
    st.sampled_from(sorted(_WORDS)).flatmap(_any_case),
    st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}(-[A-Za-z]{1,3})?", fullmatch=True),
    st.tuples(st.integers(0, 12), st.integers(0, 12)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
)


@settings(derandomize=True, deadline=None)
@given(st.lists(_LEXEMES, min_size=8, max_size=40).map(" ".join))
def test_lexing_with_the_spelling_table_matches_classifying_every_lexeme(text):
    with_table = tokenize(text)
    with mock.patch.object(lexer, "_SPELLINGS", {}):
        assert tokenize(text) == with_table


def test_tokenize_wraps_each_plain_tuple_that_lex_gives_as_a_token():
    # the parser reads lex's plain tuples; only tokenize builds Tokens
    texts = [path.read_text(encoding="utf-8") for path in corpus_paths() + broken_paths()]
    texts += [f"Zo\u00e9 {phrase}" for phrase in (
        "medium long shot", "Cut\n# note\nto", "big close up", "very @ long shot", "MEDIUM close-up")]
    texts += ["MS on Zo\u00e9, \u4e2d pan to medium long shot on Anna. Dissolve to close up on Bob."]
    for text in texts:
        tokens, diagnostics = tokenize(text)
        plain, lexed, nbytes = lex(text)
        assert lexed == diagnostics and nbytes == len(text.encode("utf-8"))
        assert len(tokens) == len(plain) > 0
        for t, fields in zip(tokens, plain):
            assert type(t) is Token and t.span == Span(t.start, t.end)
            assert type(fields) is tuple and len(fields) == 5
            assert (t.kind, t.lexeme, t.start, t.end, t.value) == fields
