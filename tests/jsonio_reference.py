"""Reference dict builders for the net and timeline JSON documents.

``psl.jsonio`` writes each document's text straight from the compiled
records.  These are the builders it replaced, kept unchanged: the tests
check that ``json.dumps(net_to_dict(c), indent=2)`` and the timeline
likewise give exactly the text the writers give.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Any, Sequence

from psl.ast import Composition, Profile, Size, SubjectSpec
from psl.compiler import CompiledStoryboard, TimelineEntry
from psl.jsonio import SCHEMA_VERSION
from psl.petri import PetriToken


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
