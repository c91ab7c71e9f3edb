"""JSON forms of nets, timelines and stats.

The writers in ``psl.jsonio`` lay out the text themselves; the reference
builders in ``jsonio_reference`` build the same net and timeline documents
as dicts, and ``json.dumps(..., indent=2)`` of those must give the
writers' text byte for byte.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jsonio_reference as ref
from conftest import corpus_paths, parse_ok
from psl import jsonio
from psl.analysis import StateId
from psl.ast import Composition, FlatComposition, Profile, ScreenFraction, Size, SubjectSpec
from psl.cli import main
from psl.compiler import (
    CompiledStoryboard,
    TimelineEntry,
    TransitionInfo,
    compile_storyboard,
    timeline,
)
from psl.generator import generate_storyboard
from psl.jsonio import (
    SCHEMA_VERSION,
    net_json,
    net_to_dict,
    stats_json,
    timeline_json,
    timeline_to_dict,
)
from psl.petri import Net, PetriToken, Place, PlaceKind, Transition
from psl.stylesheet import DEFAULT_STYLESHEET, parse_stylesheet
from test_replay_properties import long_board

BENCH_STYLE = Path(__file__).resolve().parent.parent / "perfbench" / "bench.style"
STYLES = {
    "default": DEFAULT_STYLESHEET,
    "bench": parse_stylesheet(BENCH_STYLE.read_text(encoding="utf-8")),
}


def assert_writers_match_the_reference(compiled):
    assert net_json(compiled) == json.dumps(ref.net_to_dict(compiled), indent=2)
    entries = timeline(compiled)
    assert timeline_json(entries) == json.dumps(ref.timeline_to_dict(entries), indent=2)


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


# --- the writers against the reference builders ------------------------------

@pytest.mark.parametrize("style", sorted(STYLES))
@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_writers_match_the_reference_on_the_corpus(path, style):
    sb = parse_ok(path.read_text(encoding="utf-8"))
    assert_writers_match_the_reference(compile_storyboard(sb, STYLES[style]))


@settings(derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6), st.sampled_from(sorted(STYLES)))
def test_writers_match_the_reference_on_generated_boards(rng, depth, style):
    assert_writers_match_the_reference(compile_storyboard(generate_storyboard(rng, depth),
                                                          STYLES[style]))


def test_writers_match_the_reference_on_a_300_shot_reel():
    assert_writers_match_the_reference(compile_storyboard(long_board(300), STYLES["bench"]))


def test_a_board_without_transitions():
    c = compile_storyboard(parse_ok("MS on Anna."))
    assert c.net.transitions == ()
    assert '"transitions": [],' in net_json(c)
    assert_writers_match_the_reference(c)


def test_a_transition_with_an_empty_effect():
    c = compile_storyboard(parse_ok("MS on Anna and Boris, Anna speaks, Boris speaks."))
    assert any(t.effect == () for t in c.net.transitions)
    assert '"effect": {}' in net_json(c)
    assert_writers_match_the_reference(c)


# The grammar admits ASCII names and labels only, none of which JSON
# escapes; records built by hand carry the strings that need it.
ODD = 'Zoë "Z" \\ \t\ud800'


def test_strings_that_need_escaping():
    place = f"subject:{ODD}"
    token = PetriToken.of(profile=Profile.THREE_QUARTER_LEFT, note=ODD, size=Size.MS)
    net = Net(
        (Place(place, PlaceKind.SUBJECT), Place("ctrl:0", PlaceKind.CONTROL)),
        (Transition("t1", f"{ODD} speaks", Fraction(2), ("ctrl:0", place), (place,),
                    ((place, token),)),),
        {place: (token,), "ctrl:0": (PetriToken(),)},
    )
    info = {"t1": TransitionInfo("event", 0, StateId.STATIC_HOLD, False, ODD)}
    frame = Composition((FlatComposition(Size.CU, (
        SubjectSpec(ODD, Profile.FRONT, ScreenFraction(Fraction(1, 3))), SubjectSpec("Anna"))),))
    compiled = CompiledStoryboard(None, DEFAULT_STYLESHEET, net, info, (frame,))
    text = net_json(compiled)
    assert text == json.dumps(ref.net_to_dict(compiled), indent=2)
    assert '"Zo\\u00eb \\"Z\\" \\\\ \\t\\ud800' in text
    entries = [TimelineEntry(Fraction(0), Fraction(1, 2), 0, StateId.STATIC_HOLD, False, frame)]
    assert timeline_json(entries) == json.dumps(ref.timeline_to_dict(entries), indent=2)


def test_a_frame_repeated_out_of_sequence_is_written_once():
    c = compile_storyboard(parse_ok("MS on Anna and Boris, Anna crosses Boris."))
    first, last = c.compositions[0], c.compositions[-1]
    entries = [
        TimelineEntry(Fraction(k), Fraction(k + 1), 0, StateId.STATIC_HOLD, False, frame)
        for k, frame in enumerate((first, last, first, last, first))
    ]
    written, real_frame = [], jsonio._frame

    def counting_frame(c):
        written.append(id(c))
        return real_frame(c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonio, "_frame", counting_frame)
        text = timeline_json(entries)
    assert sorted(written) == sorted({id(first), id(last)})
    assert text == json.dumps(ref.timeline_to_dict(entries), indent=2)


@pytest.mark.parametrize(
    "token",
    [PetriToken.of(odd=1.5), PetriToken.of(odd=(1, 2)), PetriToken.of(odd={1, 2}),
     PetriToken.of(odd=None), PetriToken.of(odd=b"x"), PetriToken(((1, "one"),))],
    ids=["float", "tuple", "set", "None", "bytes", "int key"],
)
def test_a_token_attribute_without_a_json_form_is_refused(token):
    c = compile_storyboard(parse_ok("MS on Anna, Anna speaks."))
    t = c.net.transitions[0]
    odd = Transition(t.id, t.label, t.duration, t.inputs, t.outputs, (("ctrl:1", token),))
    net = Net(c.net.places, (odd,), c.net.initial)
    with pytest.raises(TypeError):
        net_json(CompiledStoryboard(c.storyboard, c.stylesheet, net, c.info, c.compositions))


def test_stats_text_is_indented_json():
    doc = {"psl_schema": 1, "shot_count": 3, "simple": 2, "composite": 1,
           "sizes": {"MS": 2, "CU": 0}, "verbs": {}, "mean_events_per_shot": "4/3"}
    text = stats_json(3, {"simple": 2, "composite": 1}, {"MS": 2, "CU": 0}, {}, Fraction(4, 3))
    assert text == json.dumps(doc, indent=2)


@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_stats_command_prints_indented_json(capsys, path):
    assert main(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
