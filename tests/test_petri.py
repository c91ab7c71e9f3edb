"""The timed net: tokens, firing, and chain simulation."""
from __future__ import annotations

from fractions import Fraction

import pytest

from psl.petri import (
    FireError,
    Marking,
    MarkingInterval,
    Net,
    NetStructureError,
    PetriToken,
    Place,
    PlaceKind,
    Transition,
    enabled,
    fire,
    simulate,
)


def chain(durations, hold_effects=()):
    """A linear net a0 -t1-> a1 -t2-> ... with the given durations."""
    places = tuple(Place(f"a{k}", PlaceKind.CONTROL) for k in range(len(durations) + 1))
    transitions = tuple(
        Transition(f"t{k}", f"step {k}", d, (f"a{k - 1}",), (f"a{k}",))
        for k, d in enumerate(durations, start=1)
    )
    initial = {p.id: () for p in places}
    initial["a0"] = (PetriToken(),)
    return Net(places, transitions, initial)


def test_tokens_are_value_objects():
    a = PetriToken.of(size="MS", slot=0)
    b = PetriToken.of(slot=0, size="MS")
    assert a == b
    assert a.get("size") == "MS"
    assert a.get("missing") is None
    assert dict(b.attrs) == {"size": "MS", "slot": 0}


def test_transition_rejects_negative_duration():
    with pytest.raises(ValueError):
        Transition("t", "bad", Fraction(-1), ("a",), ("b",))


def test_net_rejects_duplicate_places():
    p = Place("a", PlaceKind.CONTROL)
    with pytest.raises(ValueError, match="duplicate place ids"):
        Net((p, p), (), {"a": ()})


def test_net_rejects_unknown_arc_targets():
    places = (Place("a", PlaceKind.CONTROL),)
    t = Transition("t", "t", Fraction(1), ("a",), ("ghost",))
    with pytest.raises(ValueError, match="unknown place"):
        Net(places, (t,), {"a": ()})


def test_enabled_needs_a_token_on_every_input():
    net = chain([Fraction(1), Fraction(1)])
    marking = dict(net.initial)
    assert [t.id for t in enabled(net, marking)] == ["t1"]
    marking = fire(net, marking, net.transitions[0])
    assert [t.id for t in enabled(net, marking)] == ["t2"]


def test_fire_passes_tokens_through_untouched():
    places = (
        Place("a", PlaceKind.CONTROL),
        Place("b", PlaceKind.CONTROL),
        Place("s", PlaceKind.SUBJECT),
    )
    t = Transition("t", "t", Fraction(1), ("a", "s"), ("b", "s"))
    token = PetriToken.of(size="CU")
    net = Net(places, (t,), {"a": (PetriToken(),), "b": (), "s": (token,)})
    after = fire(net, net.initial, t)
    assert after["s"][0] is token  # the very same token, not a copy
    assert after["a"] == () and len(after["b"]) == 1


def test_fire_applies_effects():
    places = (Place("a", PlaceKind.CONTROL), Place("s", PlaceKind.SUBJECT))
    rewritten = PetriToken.of(size="CU")
    t = Transition("t", "t", Fraction(1), ("a", "s"), ("a", "s"), (("s", rewritten),))
    net = Net(places, (t,), {"a": (PetriToken(),), "s": (PetriToken.of(size="MS"),)})
    after = fire(net, net.initial, t)
    assert after["s"] == (rewritten,)


def test_fire_creates_blank_tokens_for_fresh_outputs():
    places = (Place("a", PlaceKind.CONTROL), Place("b", PlaceKind.CONTROL))
    t = Transition("t", "t", Fraction(1), ("a",), ("a", "b"))
    net = Net(places, (t,), {"a": (PetriToken.of(tag=1),), "b": ()})
    after = fire(net, net.initial, t)
    assert after["b"] == (PetriToken(),)


def test_fire_requires_enablement():
    net = chain([Fraction(1), Fraction(1)])
    with pytest.raises(FireError):
        fire(net, net.initial, net.transitions[1])


def test_simulate_walks_the_chain():
    net = chain([Fraction(2), Fraction(3)])
    intervals = simulate(net, final_hold=Fraction(1))
    assert [(iv.t0, iv.t1, iv.fired) for iv in intervals] == [
        (Fraction(0), Fraction(2), "t1"),
        (Fraction(2), Fraction(5), "t2"),
        (Fraction(5), Fraction(6), None),
    ]
    # each interval records the marking in force while its transition runs
    assert intervals[0].marking["a0"] and not intervals[0].marking["a1"]
    assert intervals[2].marking["a2"]


def test_simulate_handles_zero_durations():
    net = chain([Fraction(0), Fraction(1)])
    intervals = simulate(net, final_hold=Fraction(1))
    assert (intervals[0].t0, intervals[0].t1) == (Fraction(0), Fraction(0))
    assert (intervals[1].t0, intervals[1].t1) == (Fraction(0), Fraction(1))


def test_simulate_rejects_branching():
    places = (
        Place("a", PlaceKind.CONTROL),
        Place("b", PlaceKind.CONTROL),
        Place("c", PlaceKind.CONTROL),
    )
    transitions = (
        Transition("left", "l", Fraction(1), ("a",), ("b",)),
        Transition("right", "r", Fraction(1), ("a",), ("c",)),
    )
    net = Net(places, transitions, {"a": (PetriToken(),), "b": (), "c": ()})
    with pytest.raises(NetStructureError, match="not a chain"):
        simulate(net)


def test_simulate_rejects_endless_nets():
    places = (Place("a", PlaceKind.CONTROL),)
    t = Transition("loop", "loop", Fraction(1), ("a",), ("a",))
    net = Net(places, (t,), {"a": (PetriToken(),)})
    with pytest.raises(NetStructureError, match="quiescence"):
        simulate(net, max_steps=50)


def test_interval_is_half_open_record():
    iv = MarkingInterval(Fraction(0), Fraction(2), {}, "t1")
    assert (iv.t0, iv.t1, iv.fired) == (0, 2, "t1")
