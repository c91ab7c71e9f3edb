"""JSON forms for nets and timelines.

Field names mirror the compiler's types one to one.  Exact rationals
serialize as strings ("2/3"), never floats; enums serialize as their
surface text.  Top-level documents carry ``"psl_schema": 1``.  Both forms
are derived artifacts for machines, export only: the sentence grammar
is the storyboard's one text form, so nothing reads them back.

``net_json``, ``timeline_json`` and ``stats_json`` write the text
``json.dumps(document, indent=2)`` would give, straight from the records:
no dict tree, and none of the reference cycles ``json``'s indenting
encoder leaves.  A record (place, transition, token, entry, frame,
subject) sits at one depth of its document, so one template carries its
indentation; strings from the board go through ``json``'s C escaper.  A
frame shown by several entries is written once per document.  The net and
timeline documents are made in pieces, one per record, by ``net_pieces``
and ``timeline_pieces``, which ``net_json`` and ``timeline_json`` join.
``net_to_dict`` and ``timeline_to_dict`` parse that text back.
"""
from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from .ast import Composition, Profile, Size, SubjectSpec

if TYPE_CHECKING:
    from .compiler import CompiledStoryboard, TimelineEntry, TransitionInfo
    from .petri import PetriToken, Transition

SCHEMA_VERSION = 1

_BOOL = ("false", "true")
_PLACE = '{\n      "id": %s,\n      "kind": %s\n    }'
_TRANSITION = (
    '{\n      "id": %s,\n      "label": %s,\n      "kind": %s,\n      "verb": %s,\n'
    '      "shot": %d,\n      "state": %d,\n      "changes_composition": %s,\n'
    '      "duration": "%s",\n      "inputs": %s,\n      "outputs": %s,\n      "effect": %s\n    }'
)
_ENTRY = (
    '{\n      "t0": "%s",\n      "t1": "%s",\n      "shot": %d,\n      "state": %d,\n'
    '      "in_transition": %s,\n      "composition": %s\n    }'
)
_STATS = (
    '{\n  "psl_schema": %d,\n  "shot_count": %d,\n  %s,\n  "sizes": %s,\n  "verbs": %s,\n'
    '  "mean_events_per_shot": "%s"\n}'
)
_PLANE = '{\n            "size": "%s",\n            "subjects": %s\n          }'
_SCREEN = ',\n                "screen": {\n                  "at": "%s"\n                }'
#: A token attribute's text, by the value's exact type; enums read ``_value_``, not ``.value``.
_ATTR = {
    int: int.__repr__,
    bool: _BOOL.__getitem__,
    str: _string,
    Fraction: '"%s"'.__mod__,
    Size: {size: '"%s"' % size.name for size in Size}.__getitem__,
    Profile: lambda profile: _string(profile._value_),
}


def _block(items: list[str], pad: str, brackets: str) -> str:
    """``items`` one per line, each after ``pad`` (a newline and its
    indentation), closed two spaces further out: ``indent=2``'s layout."""
    if not items:
        return brackets
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def _token(token: PetriToken, pad: str) -> str:
    try:
        attrs = [_string(key) + ": " + _ATTR[type(value)](value) for key, value in token.attrs]
    except KeyError:
        raise TypeError(f"a token attribute of {token!r} has no JSON form") from None
    return _block(attrs, pad, "{}")


def _document(**fields: tuple[Iterable[str], str]) -> Iterator[str]:
    """A document's text in pieces: its schema line, then each field's items (an iterable and
    its brackets) laid out as ``_block`` does, one piece per item, each made when asked for."""
    yield '{\n  "psl_schema": %d' % SCHEMA_VERSION
    for key, (items, brackets) in fields.items():
        before = ',\n  "%s": %s\n    ' % (key, brackets[0])
        for item in items:
            yield before + item
            before = ",\n    "
        yield "\n  " + brackets[1] if before == ",\n    " else ',\n  "%s": %s' % (key, brackets)
    yield "\n}"


def _transition(t: Transition, meta: TransitionInfo) -> str:
    effect = [_string(pid) + ": " + _token(token, "\n          ") for pid, token in t.effect]
    return _TRANSITION % (
        _string(t.id), _string(t.label), _string(meta.kind), _string(meta.verb),
        meta.shot_index, meta.state, _BOOL[meta.changes], t.duration,
        _block(list(map(_string, t.inputs)), "\n        ", "[]"),
        _block(list(map(_string, t.outputs)), "\n        ", "[]"),
        _block(effect, "\n        ", "{}"),
    )


def net_pieces(compiled: CompiledStoryboard) -> Iterator[str]:
    """``net_json(compiled)`` in pieces, one per place, transition and initial entry."""
    net, info = compiled.net, compiled.info
    return _document(
        places=((_PLACE % (_string(p.id), _string(p.kind._value_)) for p in net.places), "[]"),
        transitions=((_transition(t, info[t.id]) for t in net.transitions), "[]"),
        initial=((_string(pid) + ": " + _block([_token(t, "\n        ") for t in tokens],
                                               "\n      ", "[]")
                  for pid, tokens in net.initial.items() if tokens), "{}"),
    )


def net_json(compiled: CompiledStoryboard) -> str:
    return "".join(net_pieces(compiled))


def _subject(s: SubjectSpec) -> str:
    text = '{\n                "name": ' + _string(s.name)
    if s.profile is not None:
        text += ',\n                "profile": ' + _string(s.profile._value_)
    if s.screen is not None:
        text += _SCREEN % s.screen.fraction
    return text + "\n              }"


def _frame(c: Composition) -> str:
    planes = []
    for plane in c.planes:
        subjects = _block(list(map(_subject, plane.subjects)), "\n              ", "[]")
        planes.append(_PLANE % (plane.size.name, subjects))
    return '{\n        "planes": ' + _block(planes, "\n          ", "[]") + "\n      }"


def timeline_pieces(entries: Iterable[TimelineEntry]) -> Iterator[str]:
    """``timeline_json(entries)`` in pieces, one per entry."""
    frames: dict[int, str] = {}  # each frame's text, by the frame's identity
    return _document(entries=((_ENTRY % (
        e.t0, e.t1, e.shot_index, e.state, _BOOL[e.in_transition],
        frames.get(id(e.composition)) or frames.setdefault(id(e.composition), _frame(e.composition)),
    ) for e in entries), "[]"))


def timeline_json(entries: Sequence[TimelineEntry]) -> str:
    """Each distinct frame object is written once, wherever its entries sit."""
    return "".join(timeline_pieces(entries))


def stats_json(shots: int, categories: dict[str, int], sizes: dict[str, int],
               verbs: dict[str, int], mean_events_per_shot: Fraction) -> str:
    """The stats document: the shot count, one count per shot category, the
    size and verb histograms, and the mean number of events per shot."""
    counts = [[f"{_string(k)}: {n:d}" for k, n in d.items()] for d in (categories, sizes, verbs)]
    return _STATS % (SCHEMA_VERSION, shots, ",\n  ".join(counts[0]),
                     _block(counts[1], "\n    ", "{}"), _block(counts[2], "\n    ", "{}"),
                     mean_events_per_shot)


def net_to_dict(compiled: CompiledStoryboard) -> dict[str, Any]:
    return json.loads(net_json(compiled))


def timeline_to_dict(entries: Sequence[TimelineEntry]) -> dict[str, Any]:
    return json.loads(timeline_json(entries))
