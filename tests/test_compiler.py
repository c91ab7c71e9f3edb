"""Compilation to a timed net and replay into a timeline."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import corpus_paths, parse_ok
from fold_reference import apply_stylesheet, normalize_positions
from psl.analysis import StateId, infer_target
from psl.ast import Profile, Size
from psl.compiler import (
    CAMERA_PLACE,
    CompiledStoryboard,
    CompileError,
    compile_storyboard,
    control_place,
    shot_frames,
    subject_place,
    timeline,
)
from psl.diagnostics import W_NO_DURATION, Severity
from psl.formatter import format_composition
from psl.generator import generate_storyboard
from psl.petri import Net, NetStructureError, PlaceKind, simulate
from psl.stylesheet import DEFAULT_STYLESHEET, Stylesheet
from replay_reference import composition_of_marking, markings


def compiled_of(text, s=DEFAULT_STYLESHEET):
    return compile_storyboard(parse_ok(text), s)


def test_place_naming():
    assert subject_place("Anna") == "subject:Anna"
    assert control_place(3) == "ctrl:3"
    assert CAMERA_PLACE == "camera"


def test_event_free_shot_compiles_to_an_empty_chain():
    c = compiled_of("MS on Anna.")
    assert sorted(p.id for p in c.net.places) == ["camera", "ctrl:0", "subject:Anna"]
    assert c.net.transitions == ()
    token = c.net.initial["subject:Anna"][0]
    assert dict(token.attrs) == {
        "plane": 0,
        "slot": 0,
        "size": Size.MS,
        "profile": Profile.FRONT,
        "screen": Fraction(1, 2),
    }
    assert dict(c.net.initial[CAMERA_PLACE][0].attrs) == {"moving": False}
    assert len(c.compositions) == 1


def test_subjects_only_occupy_places_while_on_screen():
    c = compiled_of("MS on Anna, Boris enters from left to MS on Anna and Boris.")
    assert c.net.initial["subject:Boris"] == ()
    assert markings(c.net, simulate(c.net))[-1]["subject:Boris"] != ()


def test_one_transition_per_event_single_shot():
    # no holds inside a single shot: two events make two transitions
    c = compiled_of("MS on Anna and Boris, Anna speaks, Anna crosses Boris.")
    assert [t.id for t in c.net.transitions] == ["t1", "t2"]
    assert [c.info[t.id].kind for t in c.net.transitions] == ["event", "event"]


def test_durations_come_from_the_stylesheet():
    c = compiled_of("MS on Anna, pan to CU on Anna.")
    (t,) = c.net.transitions
    assert t.duration == DEFAULT_STYLESHEET.duration_by_verb["pan"]
    slow = Stylesheet(
        duration_by_verb={**DEFAULT_STYLESHEET.duration_by_verb, "pan": Fraction(7)},
        figure_height_by_size=DEFAULT_STYLESHEET.figure_height_by_size,
        positions_by_cardinality=DEFAULT_STYLESHEET.positions_by_cardinality,
    )
    assert compiled_of("MS on Anna, pan to CU on Anna.", slow).net.transitions[0].duration == 7


def test_missing_duration_falls_back_to_one_unit_with_a_warning():
    sparse = Stylesheet(
        duration_by_verb={},
        figure_height_by_size=DEFAULT_STYLESHEET.figure_height_by_size,
    )
    c = compiled_of("MS on Anna, Anna speaks.", sparse)
    assert c.net.transitions[0].duration == 1
    assert [(d.code, d.severity) for d in c.diagnostics] == [(W_NO_DURATION, Severity.WARNING)]
    assert "'speak'" in c.diagnostics[0].message


def test_compile_rejects_invalid_storyboards():
    with pytest.raises(CompileError, match="E101"):
        compiled_of("MS on Anna, Boris speaks.")


def test_camera_token_moves_during_a_pan():
    c = compiled_of("MS on Anna, pan to CU on Anna.")
    intervals = simulate(c.net)
    replayed = markings(c.net, intervals)
    # while the pan runs the camera token reads moving, afterwards parked
    assert intervals[0].fired == "t1"
    assert replayed[0][CAMERA_PLACE][0].get("moving") is True
    assert replayed[-1][CAMERA_PLACE][0].get("moving") is False


def test_camera_token_matches_interval_state_everywhere():
    c = compiled_of(
        "MS on Anna and Boris, Anna speaks, pan with Anna, Anna crosses Boris,"
        " lock, Boris speaks, dolly to CU on Anna and Boris.\n"
        "Cut to MS on Anna and Boris, crane with Boris."
    )
    intervals = simulate(c.net)
    for interval, replayed in zip(intervals, markings(c.net, intervals)):
        moving = replayed[CAMERA_PLACE][0].get("moving")
        if interval.fired is None:
            continue
        state = c.info[interval.fired].state
        assert moving == (state >= StateId.MOVING_HOLD), interval.fired


def test_pan_rewrites_the_subject_token():
    c = compiled_of("MS on Anna, pan to CU on Anna.")
    replayed = markings(c.net, simulate(c.net))
    before = replayed[0]["subject:Anna"][0]
    after = replayed[1]["subject:Anna"][0]
    assert before.get("size") is Size.MS and after.get("size") is Size.CU


def test_with_events_pass_subject_tokens_through_bit_identical():
    c = compiled_of("MS on Anna and Boris, pan with Anna, Anna speaks.")
    replayed = markings(c.net, simulate(c.net))
    for a, b in zip(replayed, replayed[1:]):
        for pid in ("subject:Anna", "subject:Boris"):
            assert a[pid][0] is b[pid][0]


def test_holds_appear_only_before_joins():
    c = compiled_of("MS on Anna, Anna speaks.\nCut to CU on Anna.")
    kinds = [c.info[t.id].kind for t in c.net.transitions]
    assert kinds == ["event", "hold", "join"]
    hold = c.net.transitions[1]
    assert hold.duration == 1 and hold.label == "hold"


def test_joins_retire_and_reinstall_every_subject():
    c = compiled_of("MS on Anna.\nCut to CU on Boris.")
    join = c.net.transitions[-1]
    assert c.info[join.id].kind == "join"
    assert "subject:Anna" in join.inputs
    assert "subject:Boris" in join.outputs
    assert "subject:Anna" not in join.outputs


def test_cut_is_instant_dissolve_takes_time():
    cut = compiled_of("MS on Anna.\nCut to CU on Anna.")
    dissolve = compiled_of("MS on Anna.\nDissolve to CU on Anna.")
    assert cut.net.transitions[-1].duration == 0
    assert dissolve.net.transitions[-1].duration == 1


def test_shot_frames_match_a_hand_fold():
    shot = parse_ok("MS on Anna and Boris, Anna crosses Boris, pan to CU on Anna and Boris.").shots[0]
    frames = shot_frames(shot)
    cur = normalize_positions(apply_stylesheet(shot.initial))
    want = [cur]
    for e in shot.events:
        cur = normalize_positions(apply_stylesheet(infer_target(cur, e)))
        want.append(cur)
    assert frames == want


def test_marking_reconstruction_round_trips_compositions():
    c = compiled_of("MCU on Anna 3/4 left, LS on Boris and Carla, Anna speaks.")
    for k, marking in enumerate(markings(c.net, simulate(c.net))):
        assert composition_of_marking(marking) == c.compositions[k]


# --- the timeline ----------------------------------------------------------

def test_still_shot_timeline():
    entries = timeline(compiled_of("MS on Anna."))
    assert len(entries) == 1
    (e,) = entries
    assert (e.t0, e.t1) == (0, 1)
    assert e.state is StateId.STATIC_HOLD
    assert not e.in_transition
    assert format_composition(e.composition) == "MS on Anna front at 1/2"


def test_the_closing_state_keeps_the_camera_a_dropped_firing_set_moving():
    # the lock fires in no time and keeps the frame, so its interval is
    # dropped, yet its firing is the one that sets the camera moving
    c = compiled_of("MS on Anna, lock, pan with Anna.")
    intervals = simulate(c.net)
    assert (intervals[0].t0, intervals[0].t1) == (0, 0) and CAMERA_PLACE in intervals[0].changes
    entries = timeline(c)
    assert [(e.t0, e.t1, e.state) for e in entries] == [
        (0, 2, StateId.MOVING_HOLD),
        (2, 3, StateId.MOVING_HOLD),
    ]


@pytest.mark.parametrize("place, fired", [("ctrl:0", 0), ("subject:Boris", 1)])
def test_a_replay_that_stalls_is_an_error(place, fired):
    c = compiled_of("MS on Anna and Boris, Anna speaks, Boris speaks.")
    net = Net(c.net.places, c.net.transitions, {**c.net.initial, place: ()})
    stalled = CompiledStoryboard(c.storyboard, c.stylesheet, net, c.info, c.compositions)
    with pytest.raises(NetStructureError, match=f"stalled: {fired} of 2 transitions fired"):
        timeline(stalled)


def test_cross_timeline_swaps_positions():
    entries = timeline(compiled_of("MS on Anna and Boris, Anna crosses Boris."))
    assert [(e.t0, e.t1, e.state, e.in_transition) for e in entries] == [
        (Fraction(0), Fraction(2), StateId.STATIC_CHANGE, True),
        (Fraction(2), Fraction(3), StateId.STATIC_HOLD, False),
    ]
    assert format_composition(entries[0].composition) == (
        "MS on Anna front at 1/3 and Boris front at 2/3"
    )
    assert format_composition(entries[1].composition) == (
        "MS on Boris front at 1/3 and Anna front at 2/3"
    )


def test_zero_length_non_changes_are_dropped():
    plain = timeline(compiled_of("MS on Anna, pan with Anna, lock, Anna speaks."))
    assert [e.state for e in plain] == [
        StateId.MOVING_HOLD,   # the pan-with beat
        StateId.STATIC_HOLD,   # the speak, post lock
        StateId.STATIC_HOLD,   # closing hold
    ]
    assert all(e.t0 < e.t1 for e in plain)


def test_cuts_remain_as_boundary_markers():
    entries = timeline(compiled_of("MS on Anna.\nCut to CU on Anna."))
    assert [(e.t0, e.t1, e.shot_index, e.in_transition) for e in entries] == [
        (Fraction(0), Fraction(1), 0, False),
        (Fraction(1), Fraction(1), 0, True),   # the cut itself, instantaneous
        (Fraction(1), Fraction(2), 1, False),
    ]


def test_dissolve_is_a_stamped_middle_entry():
    entries = timeline(compiled_of("MS on Anna.\nDissolve to CU on Anna."))
    assert [(e.t0, e.t1, e.in_transition) for e in entries] == [
        (Fraction(0), Fraction(1), False),
        (Fraction(1), Fraction(2), True),
        (Fraction(2), Fraction(3), False),
    ]


def test_terminal_state_keeps_tracking():
    entries = timeline(compiled_of("MS on Anna, pan with Anna."))
    assert entries[-1].state is StateId.MOVING_HOLD


def test_timeline_grows_by_one_entry_per_positive_event():
    # n timed events in one shot yield n+1 visible entries
    for n in range(6):
        clauses = ", ".join(
            "Anna speaks" if k % 2 == 0 else "Boris reacts to Anna" for k in range(n)
        )
        text = "MS on Anna and Boris" + (", " + clauses if clauses else "") + "."
        assert len(timeline(compiled_of(text))) == n + 1, n


@pytest.mark.parametrize(
    "text",
    [
        "MS on Anna.\nCut to MS on Anna.",
        "MS on Anna and Bob, Anna moves to MS on Anna and Bob.",
        "MS on Anna and Bob, lock, Anna crosses Bob, Bob speaks, pan with Bob.",
    ],
    ids=["join-between-equal-frames", "to-event-keeps-the-frame", "lock"],
)
def test_timeline_compositions_match_the_direct_fold(text):
    c = compiled_of(text)
    assert not all(meta.changes for meta in c.info.values())  # some firing keeps the frame
    visible = [
        c.compositions[k]
        for k, interval in enumerate(simulate(c.net))
        if interval.fired is None
        or interval.t0 < interval.t1
        or c.info[interval.fired].changes
    ]
    assert [e.composition for e in timeline(c)] == visible


def test_a_step_shares_the_frame_object_exactly_when_it_keeps_the_frame():
    boards = [parse_ok(path.read_text(encoding="utf-8")) for path in corpus_paths()]
    boards += [generate_storyboard(random.Random(seed), 6) for seed in range(60)]
    boards.append(parse_ok("MS on Anna, pan to MS on Anna. Cut to MS on Anna."))
    for sb in boards:
        c = compile_storyboard(sb)
        assert len(c.compositions) == len(c.info) + 1
        for k in range(1, len(c.compositions)):
            shared = c.compositions[k] is c.compositions[k - 1]
            assert shared is not c.info[f"t{k}"].changes, (sb, k)


def test_full_corpus_compiles_and_replays():
    for path in corpus_paths():
        sb = parse_ok(path.read_text(encoding="utf-8"))
        c = compile_storyboard(sb)
        entries = timeline(c)
        assert entries, path.name
        total = sum(len(shot.events) + 1 for shot in sb.shots) + len(sb.joins)
        dropped = sum(
            1
            for t in c.net.transitions
            if t.duration == 0 and not c.info[t.id].changes
        )
        assert len(entries) == total - dropped, path.name
        clock = entries[0].t0
        assert clock == 0
        for e in entries:
            assert e.t0 == clock and e.t1 >= e.t0
            clock = e.t1
