"""Lossless JSON forms for syntax trees, nets, and timelines.

Field names mirror the tree types one to one, so the schema reads
straight off the dataclasses.  Exact rationals serialize as strings
("2/3"), never floats; enums serialize as their surface text.  Source
spans are deliberately not serialized: two trees that differ only in
where they were parsed from are the same storyboard.

Top-level documents carry ``"psl_schema": 1``.  ``storyboard_from_dict``
accepts exactly what ``storyboard_to_dict`` emits (with or without the
version stamp) and rejects anything else.  Nets and timelines are export
only; they are derived artifacts, so nothing reads them back.
"""
from __future__ import annotations

from dataclasses import fields
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .ast import (
    EVENT_TYPES,
    Composition,
    FlatComposition,
    Profile,
    ScreenAnchor,
    ScreenEvent,
    ScreenFraction,
    ScreenPosition,
    Shot,
    ShotTransition,
    Side,
    Size,
    Storyboard,
    SubjectSpec,
)
from .compiler import CompiledStoryboard, TimelineEntry
from .petri import PetriToken

SCHEMA_VERSION = 1

_EVENT_BY_TAG = {cls.tag: cls for cls in EVENT_TYPES}


# --- encoding ------------------------------------------------------------

def subject_to_dict(s: SubjectSpec) -> dict[str, Any]:
    out: dict[str, Any] = {"name": s.name}
    if s.profile is not None:
        out["profile"] = s.profile.value
    if isinstance(s.screen, ScreenAnchor):
        out["screen"] = {"anchor": s.screen.value}
    elif s.screen is not None:
        out["screen"] = {"at": str(s.screen.value)}
    return out


def composition_to_dict(c: Composition) -> dict[str, Any]:
    return {
        "planes": [
            {"size": plane.size.name, "subjects": [subject_to_dict(s) for s in plane.subjects]}
            for plane in c.planes
        ]
    }


def event_to_dict(e: ScreenEvent) -> dict[str, Any]:
    """The event's tag, then each set field in declaration order."""
    out: dict[str, Any] = {"event": e.tag}
    for name in e.__match_args__:
        value = getattr(e, name)
        if value is not None:
            out[name] = _field_to_json(value)
    return out


def _field_to_json(value: object) -> object:
    if isinstance(value, Composition):
        return composition_to_dict(value)
    if isinstance(value, SubjectSpec):
        return subject_to_dict(value)
    if isinstance(value, Side):
        return value.value
    return value


def shot_to_dict(shot: Shot) -> dict[str, Any]:
    return {
        "initial": composition_to_dict(shot.initial),
        "events": [event_to_dict(e) for e in shot.events],
    }


def storyboard_to_dict(sb: Storyboard) -> dict[str, Any]:
    return {
        "psl_schema": SCHEMA_VERSION,
        "shots": [shot_to_dict(s) for s in sb.shots],
        "joins": [j.value for j in sb.joins],
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
    return {
        "psl_schema": SCHEMA_VERSION,
        "entries": [
            {
                "t0": str(e.t0),
                "t1": str(e.t1),
                "shot": e.shot_index,
                "state": int(e.state),
                "in_transition": e.in_transition,
                "composition": composition_to_dict(e.composition),
            }
            for e in entries
        ],
    }


# --- decoding ------------------------------------------------------------

def _require(data: Mapping[str, Any], key: str, kind: type) -> Any:
    if not isinstance(data, Mapping) or key not in data:
        raise ValueError(f"missing {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise ValueError(f"{key!r} should be {kind.__name__}, got {type(value).__name__}")
    return value


def _optional(data: Mapping[str, Any], key: str, kind: type, default: Any) -> Any:
    return _require(data, key, kind) if key in data else default


def _screen_from_dict(data: Mapping[str, Any]) -> ScreenPosition:
    if "anchor" in data:
        return ScreenAnchor(_require(data, "anchor", str))
    if "at" in data:
        try:
            return ScreenFraction(Fraction(_require(data, "at", str)))
        except ZeroDivisionError:
            raise ValueError(f"bad screen fraction {data['at']!r}") from None
    raise ValueError(f"screen position needs 'anchor' or 'at', got {sorted(data)}")


def subject_from_dict(data: Mapping[str, Any]) -> SubjectSpec:
    name = _require(data, "name", str)
    profile = Profile(data["profile"]) if "profile" in data else None
    screen = _screen_from_dict(_require(data, "screen", dict)) if "screen" in data else None
    return SubjectSpec(name, profile, screen)


def composition_from_dict(data: Mapping[str, Any]) -> Composition:
    planes = []
    for plane in _require(data, "planes", list):
        try:
            size = Size[_require(plane, "size", str)]
        except KeyError:
            raise ValueError(f"unknown size {plane['size']!r}") from None
        subjects = tuple(subject_from_dict(s) for s in _require(plane, "subjects", list))
        planes.append(FlatComposition(size, subjects))
    return Composition(tuple(planes))


#: Field annotation -> (JSON type, decoder) for the fields events declare.
_FIELD_FROM_JSON = {
    "str": (str, str),
    "Side": (str, Side),
    "SubjectSpec": (dict, subject_from_dict),
    "Composition": (dict, composition_from_dict),
}


def event_from_dict(data: Mapping[str, Any]) -> ScreenEvent:
    tag = _require(data, "event", str)
    cls = _EVENT_BY_TAG.get(tag)
    if cls is None:
        raise ValueError(f"unknown event tag {tag!r}")
    values = []
    for f in fields(cls):
        if not f.compare:
            continue
        kind, decode = _FIELD_FROM_JSON[f.type.removesuffix(" | None")]
        if f.default is None and f.name not in data:
            values.append(None)
        else:
            values.append(decode(_require(data, f.name, kind)))
    return cls(*values)


def shot_from_dict(data: Mapping[str, Any]) -> Shot:
    initial = composition_from_dict(_require(data, "initial", dict))
    events = tuple(event_from_dict(e) for e in _optional(data, "events", list, []))
    return Shot(initial, events)


def storyboard_from_dict(data: Mapping[str, Any]) -> Storyboard:
    if not isinstance(data, Mapping):
        raise ValueError(f"a storyboard document is an object, got {type(data).__name__}")
    version = data.get("psl_schema", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported psl_schema {version!r}")
    shots = tuple(shot_from_dict(s) for s in _require(data, "shots", list))
    joins = tuple(ShotTransition(j) for j in _optional(data, "joins", list, []))
    return Storyboard(shots, joins)
