"""JSON forms: schema versioning, round trips, and strict decoding."""
from __future__ import annotations

import json

import pytest

from conftest import corpus_paths, parse_ok
from psl.compiler import compile_storyboard, timeline
from psl.jsonio import (
    SCHEMA_VERSION,
    composition_from_dict,
    composition_to_dict,
    event_from_dict,
    event_to_dict,
    net_to_dict,
    storyboard_from_dict,
    storyboard_to_dict,
    timeline_to_dict,
)


def test_schema_version_is_one():
    assert SCHEMA_VERSION == 1


def test_storyboard_dict_shape():
    sb = parse_ok("MS on Anna at 1/3, Anna speaks.\nCut to CU on Boris.")
    data = storyboard_to_dict(sb)
    assert data["psl_schema"] == SCHEMA_VERSION
    assert data["joins"] == ["cut"]
    assert len(data["shots"]) == 2
    assert data["shots"][0]["events"] == [{"event": "speak", "actor": "Anna"}]
    subject = data["shots"][0]["initial"]["planes"][0]["subjects"][0]
    assert subject == {"name": "Anna", "screen": {"at": "1/3"}}
    json.dumps(data)  # nothing unserializable leaks through


def test_storyboard_round_trip_over_the_corpus():
    for path in corpus_paths():
        sb = parse_ok(path.read_text(encoding="utf-8"))
        data = json.loads(json.dumps(storyboard_to_dict(sb)))
        assert storyboard_from_dict(data) == sb, path.name


def test_unsupported_schema_version_is_rejected():
    sb = parse_ok("MS on Anna.")
    data = storyboard_to_dict(sb)
    data["psl_schema"] = 99
    with pytest.raises(ValueError, match="unsupported psl_schema"):
        storyboard_from_dict(data)


def _one_subject(subject):
    return {"shots": [{"initial": {"planes": [{"size": "MS", "subjects": [subject]}]}}]}


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"shots": _one_subject({"name": "Anna"})["shots"], "joins": 5},
        _one_subject({"name": "Anna", "screen": {"at": [1]}}),
        _one_subject({"name": "Anna", "screen": "at"}),
        _one_subject({"name": "Anna", "screen": {"at": "1/0"}}),
    ],
    ids=["top-level-list", "joins-int", "at-list", "screen-string", "at-zero-denominator"],
)
def test_malformed_documents_are_value_errors(data):
    with pytest.raises(ValueError):
        storyboard_from_dict(data)


def test_event_tags_are_schema_one():
    sb = parse_ok(
        "MS on Anna and Boris, lock, pan with Anna, dolly with Boris, crane with Anna,"
        " pan to MS on Anna and Boris, dolly to MS on Anna and Boris,"
        " crane to MS on Anna and Boris, continue to MS on Anna and Boris."
    )
    assert [event_to_dict(e)["event"] for e in sb.shots[0].events] == [
        "lock", "pan-with", "dolly-with", "crane-with",
        "pan-to", "dolly-to", "crane-to", "continue-to",
    ]


def test_event_tags_are_strict():
    with pytest.raises(ValueError, match="unknown event tag"):
        event_from_dict({"event": "teleport"})


def test_event_round_trip_all_forms():
    sb = parse_ok(
        "MS on Anna and Boris, lock, pan with Anna, dolly with Boris,"
        " crane with Anna, crane to LS on Anna and Boris,"
        " dolly to MS on Anna and Boris, pan to MS on Anna and Boris,"
        " continue to MCU on Anna and Boris, Anna speaks, Boris reacts,"
        " Boris reacts to Anna, Anna uses Boris, Anna touches Boris,"
        " Anna crosses Boris, Carla enters from left to MS on Anna and Boris"
        " and Carla, Carla exits right, Anna moves to MS on Boris and Anna."
    )
    assert len({type(e) for e in sb.shots[0].events}) == 16
    for e in sb.shots[0].events:
        data = json.loads(json.dumps(event_to_dict(e)))
        assert event_from_dict(data) == e, e.verb


def test_composition_round_trip_keeps_exact_fractions():
    comp = parse_ok("LS on Anna 3/4 back left at 2/7 and Boris at 6/7.").shots[0].initial
    data = composition_to_dict(comp)
    assert data["planes"][0]["subjects"][0]["screen"] == {"at": "2/7"}
    assert composition_from_dict(json.loads(json.dumps(data))) == comp


def test_composition_rejects_unknown_sizes():
    with pytest.raises(ValueError):
        composition_from_dict({"planes": [{"size": "XXL", "subjects": [{"name": "A"}]}]})


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
    names = [
        s["name"]
        for s in data["entries"][-1]["composition"]["planes"][0]["subjects"]
    ]
    assert names == ["Boris", "Anna"]
