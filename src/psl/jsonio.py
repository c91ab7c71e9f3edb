"""JSON forms for nets and timelines.

Field names mirror the compiler's types one to one.  Exact rationals
serialize as strings ("2/3"), never floats; enums serialize as their
surface text.  Top-level documents carry ``"psl_schema": 1``.  Both forms
are derived artifacts for machines, export only: the sentence grammar
is the storyboard's one text form, so nothing reads them back.
"""
from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from typing import Any, Sequence

from .ast import Composition, Profile, Size, SubjectSpec
from .compiler import CompiledStoryboard, TimelineEntry
from .petri import PetriToken

SCHEMA_VERSION = 1


def subject_to_dict(s: SubjectSpec) -> dict[str, Any]:
    out: dict[str, Any] = {"name": s.name}
    if s.profile is not None:
        out["profile"] = s.profile.value
    if s.screen is not None:
        out["screen"] = {"at": str(s.screen.fraction)}
    return out


def composition_to_dict(c: Composition) -> dict[str, Any]:
    return {
        "planes": [
            {"size": plane.size.name, "subjects": [subject_to_dict(s) for s in plane.subjects]}
            for plane in c.planes
        ]
    }


def _attr_value(value: object) -> object:
    if isinstance(value, bool):
        return value
    if isinstance(value, Size):
        return value.name
    if isinstance(value, Profile):
        return value.value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (int, str)):
        return value
    raise TypeError(f"token attribute {value!r} has no JSON form")


def _token_to_dict(token: PetriToken) -> dict[str, Any]:
    return {key: _attr_value(value) for key, value in token.attrs}


def net_to_dict(compiled: CompiledStoryboard) -> dict[str, Any]:
    net = compiled.net
    transitions = []
    for t in net.transitions:
        meta = compiled.info[t.id]
        transitions.append(
            {
                "id": t.id,
                "label": t.label,
                "kind": meta.kind,
                "verb": meta.verb,
                "shot": meta.shot_index,
                "state": int(meta.state),
                "changes_composition": meta.changes,
                "duration": str(t.duration),
                "inputs": list(t.inputs),
                "outputs": list(t.outputs),
                "effect": {pid: _token_to_dict(token) for pid, token in t.effect},
            }
        )
    return {
        "psl_schema": SCHEMA_VERSION,
        "places": [{"id": p.id, "kind": p.kind.value} for p in net.places],
        "transitions": transitions,
        "initial": {
            pid: [_token_to_dict(t) for t in tokens]
            for pid, tokens in net.initial.items()
            if tokens
        },
    }


def timeline_to_dict(entries: Sequence[TimelineEntry]) -> dict[str, Any]:
    """The timeline document.  Consecutive entries that hold the same
    ``Composition`` object, as ``timeline`` gives them, share one dict."""
    out = []
    comp = frame = None
    for e in entries:
        if e.composition is not comp:
            comp = e.composition
            frame = composition_to_dict(comp)
        out.append(
            {
                "t0": str(e.t0),
                "t1": str(e.t1),
                "shot": e.shot_index,
                "state": int(e.state),
                "in_transition": e.in_transition,
                "composition": frame,
            }
        )
    return {"psl_schema": SCHEMA_VERSION, "entries": out}


def dumps(value: object) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the payload types.

    ``json`` uses its C encoder only without ``indent``, so indented output
    would run the pure-Python one; this emitter lays out the indentation
    itself and escapes strings with the C escaper.  It takes dicts with str
    keys, lists, str, int, bool and None; any other type (a float, a tuple,
    a Fraction, a non-str key) raises TypeError instead of slipping through.

    A dict is encoded once for each run of places that hold the same
    object one after another at the same indentation, such as the frame
    that consecutive timeline entries share: the text of the last dict
    encoded at each indentation is kept for the call, and only that one.
    """
    return _encode(value, "\n", {})


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _encode(value: object, newline: str, last: dict[str, tuple[object, str]]) -> str:
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is dict or kind is list:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = newline + "  "
        if kind is dict:
            seen = last.get(newline)
            if seen is not None and seen[0] is value:
                return seen[1]
            # _string raises TypeError on a key that is not a str
            items = [_string(k) + ": " + _encode(v, inner, last) for k, v in value.items()]
            text = "{" + inner + ("," + inner).join(items) + newline + "}"
            last[newline] = (value, text)
            return text
        items = [_encode(v, inner, last) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return _CONSTANTS[value]
    raise TypeError(f"{kind.__name__} {value!r} has no JSON form")
