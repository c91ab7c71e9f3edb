"""JSON forms of nets and timelines, and the indented emitter."""
from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import parse_ok
from psl.compiler import compile_storyboard, timeline
from psl.jsonio import SCHEMA_VERSION, dumps, net_to_dict, timeline_to_dict


def test_schema_version_is_one():
    assert SCHEMA_VERSION == 1


def test_net_dict_shape():
    c = compile_storyboard(parse_ok("MS on Anna, Anna speaks."))
    data = json.loads(json.dumps(net_to_dict(c)))
    assert data["psl_schema"] == SCHEMA_VERSION
    assert {p["id"] for p in data["places"]} == {"camera", "ctrl:0", "ctrl:1", "subject:Anna"}
    (t,) = data["transitions"]
    assert t["id"] == "t1" and t["verb"] == "speak" and t["kind"] == "event"
    assert t["duration"] == "2"
    assert t["changes_composition"] is False
    assert t["shot"] == 0 and t["state"] == 1
    assert "ctrl:0" in t["inputs"] and "ctrl:1" in t["outputs"]
    assert set(data["initial"]) == {"camera", "ctrl:0", "subject:Anna"}  # only seeded places


def test_timeline_dict_shape():
    c = compile_storyboard(parse_ok("MS on Anna and Boris, Anna crosses Boris."))
    data = json.loads(json.dumps(timeline_to_dict(timeline(c))))
    assert data["psl_schema"] == SCHEMA_VERSION
    first = data["entries"][0]
    assert (first["t0"], first["t1"]) == ("0", "2")
    assert first["shot"] == 0 and first["state"] == 2 and first["in_transition"] is True
    subjects = data["entries"][-1]["composition"]["planes"][0]["subjects"]
    assert [s["name"] for s in subjects] == ["Boris", "Anna"]
    assert subjects[0]["screen"] == {"at": "1/3"}  # an exact string, never a float


# --- the indented emitter --------------------------------------------------

_TEXT = st.text() | st.text(st.characters(categories=["Cs"]))  # lone surrogates too
_PAYLOADS = st.recursive(
    _TEXT | st.integers() | st.integers(-(2**200), 2**200) | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(derandomize=True, deadline=None)
@given(_PAYLOADS)
@example({"a": {}, "b": [[], {}], "\u00e9\ud800": -(2**70)})
def test_dumps_matches_indented_json(value):
    assert dumps(value) == json.dumps(value, indent=2)


def _reusing(shared):
    """One object in consecutive siblings, at two depths, and in cousins."""
    return {
        "siblings": [shared, shared, shared],
        "depths": [shared, [shared, {"deeper": shared}]],
        "cousins": [{"a": shared, "n": 1}, {"a": shared}],
        "last": shared,
    }


_SHARED = (
    st.lists(_PAYLOADS, min_size=1, max_size=4)
    | st.dictionaries(_TEXT, _PAYLOADS, min_size=1, max_size=4)
).map(_reusing)


@settings(derandomize=True, deadline=None)
@given(_SHARED)
@example(_reusing({"k": {"inner": [1]}}))
def test_dumps_matches_indented_json_on_shared_objects(value):
    assert dumps(value) == json.dumps(value, indent=2)


def test_consecutive_entries_with_one_frame_share_its_dict():
    c = compile_storyboard(parse_ok("MS on Anna and Boris, Anna speaks, Boris speaks, lock."))
    data = timeline_to_dict(timeline(c))
    frames = [e["composition"] for e in data["entries"]]
    assert len(frames) > 1 and all(f is frames[0] for f in frames)
    assert dumps(data) == json.dumps(data, indent=2)


@pytest.mark.parametrize(
    "value",
    [1.5, (1, 2), Fraction(1, 3), {1, 2}, {1: "one"}],
    ids=["float", "tuple", "Fraction", "set", "int key"],
)
def test_dumps_refuses_types_outside_the_payload(value):
    with pytest.raises(TypeError):
        dumps(value)
    with pytest.raises(TypeError):  # however deep it sits
        dumps({"entries": [{"t0": value}]})
