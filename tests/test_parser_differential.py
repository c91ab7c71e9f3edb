"""The parser against the reference copy of the old parser.

``parser_reference.parse_storyboard`` is the parser as it was before its
cursor read a list of token kinds, fed by the reference lexer.  Both must
give the same tree and the same diagnostics (code, severity, span,
message), in the same order, on the texts of the lexer's differential
test.  Tree equality ignores source spans, so every span of every shot,
plane and event is compared as well, in tree order.
"""
from __future__ import annotations

import random

import pytest
from parser_reference import parse_storyboard as reference_parse
from test_lexer_differential import broken_corpus, corpus, generated, inserts_alone, mutated

from psl.diagnostics import Record
from psl.parser import parse_storyboard


def spans(node):
    """(class name, start, end) of every node that carries a span, in tree
    order, walking each record through its compared fields."""
    if isinstance(node, tuple):
        for item in node:
            yield from spans(item)
    elif isinstance(node, Record):
        span = getattr(node, "span", None)
        if span is not None:
            yield type(node).__name__, span.start, span.end
        for name in node._compared:
            yield from spans(getattr(node, name))


def parsed(parse, text: str):
    tree, diagnostics = parse(text)
    return (
        tree,
        list(spans(tree)),
        [(d.code, d.severity, d.span.start, d.span.end, d.message) for d in diagnostics],
    )


def test_spans_reach_shots_planes_and_events():
    tree, _ = parse_storyboard("MS on Anna, CU on Boris, pan to LS on Anna, Anna speaks.")
    assert list(spans(tree)) == [
        ("Shot", 0, 56),
        ("FlatComposition", 0, 10),
        ("FlatComposition", 12, 23),
        ("PanTo", 25, 42),
        ("FlatComposition", 32, 42),
        ("Speak", 44, 55),
    ]


@pytest.mark.parametrize("family", [corpus, broken_corpus, generated, mutated, inserts_alone])
def test_parser_matches_the_reference(family):
    texts = family(random.Random(f"parser-{family.__name__}"))
    assert texts
    for text in texts:
        assert parsed(parse_storyboard, text) == parsed(reference_parse, text), repr(text)
