"""The one-scan lexer against the reference copy of the old lexer.

``lexer_reference.tokenize`` is the lexer as it was before it scanned in
one pass; both must give the same tokens (kind, lexeme, span, value) and
the same diagnostics (code, severity, span, message), in the same order,
on real texts and on seeded mutations of them that aim at the corners:
comments, blanks outside the alphabet, non-ASCII letters, numbers,
hyphenated words, and phrase words split by comments or bad characters.
"""
from __future__ import annotations

import random

import pytest
from conftest import broken_paths, corpus_paths
from lexer_reference import tokenize as reference_tokenize

from psl.formatter import format_storyboard
from psl.generator import generate_storyboard
from psl.lexer import tokenize

_LONG_TERM = "7" * 5000  # more digits than int() reads by default

# Inserted at random positions, at random characters (not just between words).
_INSERTS = (
    "#", "\n#", "\n# note\n", "\r", "\r\n", "\x0c", "\x0c#", " #", "\x85", " ",
    "\t", "\n", " ", "é", "ß", "Ω", "中", "\U0001f3ac", "٣", "@", "%", "~", "_", "-",
    "12", "007", "1/0", "0/5", "3/4", f"1/{_LONG_TERM}", f"{_LONG_TERM}/2", "1/", "/3",
    "stage-left", "close-up", "x-y-z", "a-", "-b", ",", ".",
    "cut\n# note\nto", "Cut @ to", "dissolve%to", "continue\nto", "medium @ long shot",
    "very\n#\nlong shot", "big\x0cclose up", "close #x up", "medium close-up", "long 12 shot",
    "medium stage-left shot", "CLOSE UP", "cut", "to", "medium", "long", "shot", "close", "up",
    "medium medium shot", "close up up", "cut cut to", "big close close up", "very long long shot",
    "continue to to", "medium long stage-left shot", "big close-up up", "medium close stage-left up",
)


def lexed(lex, text: str):
    tokens, diagnostics = lex(text)
    return (
        [(t.kind, t.lexeme, t.start, t.end, type(t.value), t.value) for t in tokens],
        [(d.code, d.severity, d.span.start, d.span.end, d.message) for d in diagnostics],
    )


def corpus(rng):
    return [path.read_text(encoding="utf-8") for path in corpus_paths()]


def broken_corpus(rng):
    return [path.read_text(encoding="utf-8") for path in broken_paths()]


def generated(rng):
    return [format_storyboard(generate_storyboard(rng, rng.randint(1, 5))) for _ in range(150)]


def mutated(rng):
    bases = corpus(rng) + broken_corpus(rng) + generated(rng)[:40]
    texts = []
    for _ in range(1500):
        text = rng.choice(bases)
        for _ in range(rng.randint(1, 6)):
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(_INSERTS) + text[at:]
        texts.append(text)
    return texts


def inserts_alone(rng):
    return [
        "".join(rng.choice(_INSERTS + (" ", " ", "MS", "on", "Anna")) for _ in range(rng.randint(0, 12)))
        for _ in range(1000)
    ]


@pytest.mark.parametrize("family", [corpus, broken_corpus, generated, mutated, inserts_alone])
def test_one_scan_lexer_matches_the_reference(family):
    texts = family(random.Random(f"lexer-{family.__name__}"))
    assert texts
    for text in texts:
        assert lexed(tokenize, text) == lexed(reference_tokenize, text), repr(text)
