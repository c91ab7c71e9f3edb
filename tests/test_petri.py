"""The timed net: tokens, chain simulation, and the reference stepper it is checked against."""
from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from conftest import corpus_paths, parse_ok
from petri_reference import FireError, enabled, fire
from replay_reference import markings

from psl.compiler import compile_storyboard
from psl.petri import (
    MarkingInterval,
    Net,
    NetStructureError,
    PetriToken,
    Place,
    PlaceKind,
    Transition,
    simulate,
)
from psl.stylesheet import HOLD_DURATION


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


@pytest.mark.parametrize("duration", [Fraction(-1), -1, 1.5, float("nan"), Decimal("1.5"), True, "1"])
def test_transition_rejects_negative_duration(duration):
    """A duration is exact and not negative: floats, Decimals and bools are refused."""
    with pytest.raises(ValueError):
        Transition("t", "bad", duration, ("a",), ("b",))


@pytest.mark.parametrize("duration", [0, 2, Fraction(0), Fraction(3, 2)])
def test_transition_accepts_exact_durations(duration):
    assert Transition("t", "ok", duration, ("a",), ("b",)).duration is duration


def test_net_rejects_duplicate_places():
    p = Place("a", PlaceKind.CONTROL)
    with pytest.raises(ValueError, match="duplicate place ids"):
        Net((p, p), (), {"a": ()})


def test_net_rejects_a_transition_reading_a_place_twice():
    # one token in "a" would look enabled, yet firing needs two
    places = (Place("a", PlaceKind.CONTROL), Place("b", PlaceKind.CONTROL))
    t = Transition("t", "t", Fraction(1), ("a", "a"), ("b",))
    with pytest.raises(ValueError, match="transition t lists an input place twice"):
        Net(places, (t,), {"a": (PetriToken(),), "b": ()})


def test_net_rejects_unknown_arc_targets():
    places = (Place("a", PlaceKind.CONTROL),)
    t = Transition("t", "t", Fraction(1), ("a",), ("ghost",))
    with pytest.raises(ValueError, match="unknown place"):
        Net(places, (t,), {"a": ()})


def test_net_rejects_an_initial_marking_on_an_unknown_place():
    places = (Place("a", PlaceKind.CONTROL),)
    with pytest.raises(ValueError, match="initial marking names unknown place 'ghost'"):
        Net(places, (), {"a": (), "ghost": (PetriToken(),)})


def test_net_rejects_an_effect_on_a_place_the_transition_does_not_output_to():
    places = (Place("a", PlaceKind.CONTROL), Place("b", PlaceKind.CONTROL))
    t = Transition("t", "t", Fraction(1), ("a",), ("a",), (("b", PetriToken.of(n=1)),))
    with pytest.raises(ValueError, match="transition t has an effect on 'b', not an output"):
        Net(places, (t,), {"a": (PetriToken(),), "b": ()})


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


def test_fire_rewrites_only_the_places_it_touches():
    places = tuple(Place(pid, PlaceKind.CONTROL) for pid in ("a", "b", "idle"))
    t = Transition("t", "t", Fraction(1), ("a",), ("a", "b"))
    first, second = PetriToken.of(n=1), PetriToken.of(n=2)
    initial = {"a": (first, second), "b": (), "idle": (PetriToken.of(n=3),)}
    net = Net(places, (t,), initial)
    snapshot = dict(initial)
    after = fire(net, initial, t)
    assert after["idle"] is initial["idle"]  # untouched place: same tuple object
    assert after["a"] == (second, first)  # FIFO: the oldest token is consumed
    assert after["a"][1] is first and after["b"] == (PetriToken(),)
    assert initial == snapshot  # the input marking is not changed


def test_fire_requires_enablement():
    net = chain([Fraction(1), Fraction(1)])
    with pytest.raises(FireError):
        fire(net, net.initial, net.transitions[1])


def test_simulate_walks_the_chain():
    net = chain([Fraction(2), Fraction(3)])
    intervals = simulate(net)
    assert [(iv.t0, iv.t1, iv.fired) for iv in intervals] == [
        (Fraction(0), Fraction(2), "t1"),
        (Fraction(2), Fraction(5), "t2"),
        (Fraction(5), Fraction(5) + HOLD_DURATION, None),
    ]
    # the marking in force while each transition runs, rebuilt from the changes
    replayed = markings(net, intervals)
    assert replayed[0]["a0"] and not replayed[0]["a1"]
    assert replayed[2]["a2"]


def test_simulate_handles_zero_durations():
    net = chain([Fraction(0), Fraction(1)])
    intervals = simulate(net)
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
    # a ring of k transitions: a chain fires each once, so k + 1 steps is the bound
    for k in (1, 3):
        places = tuple(Place(f"a{i}", PlaceKind.CONTROL) for i in range(k))
        ring = tuple(
            Transition(f"t{i}", "loop", Fraction(1), (f"a{i}",), (f"a{(i + 1) % k}",))
            for i in range(k)
        )
        initial = {p.id: () for p in places}
        initial["a0"] = (PetriToken(),)
        net = Net(places, ring, initial)
        with pytest.raises(NetStructureError, match=f"no quiescence after {k + 1} steps"):
            simulate(net)


def test_each_interval_records_what_its_firing_changed():
    # "b" is no key of the initial marking, so it appears only once filled;
    # "idle" is never touched, so no interval names it
    places = tuple(Place(pid, PlaceKind.CONTROL) for pid in ("a", "b", "idle"))
    t = Transition("t", "t", Fraction(1), ("a",), ("b",))
    token = PetriToken.of(n=1)
    net = Net(places, (t,), {"a": (token,), "idle": (PetriToken.of(n=2),)})
    firing, hold = simulate(net)
    assert firing.changes == {"a": (), "b": (PetriToken(),)} and hold.changes == {}
    before, after = markings(net, (firing, hold))
    assert before == net.initial and "b" not in before
    assert list(after.items()) == list(fire(net, net.initial, t).items())
    assert net.initial == {"a": (token,), "idle": (PetriToken.of(n=2),)}


def test_interval_is_half_open_record():
    iv = MarkingInterval(Fraction(0), Fraction(2), {}, "t1")
    assert (iv.t0, iv.t1, iv.fired) == (0, 2, "t1")


# --- replay oracle ----------------------------------------------------------
# ``simulate`` keeps waiting lists instead of rescanning the net, and
# records each firing's changes instead of whole markings; the replay
# below rescans with ``enabled`` and fires with ``fire`` from
# ``petri_reference`` at every step, as the definition reads, moving
# tokens with code of its own.  Every token ``_net`` places differs from
# the others, so taking the wrong one shows.  Nets stay small: every
# step of the reference holds a full marking, which the marking rebuilt
# from the simulated changes must equal.

def rescanning_simulate(net: Net) -> list[tuple]:
    """``(t0, t1, fired, marking)`` per step of the ``fire`` chain."""
    bound = len(net.transitions) + 1
    trajectory = []
    marking = dict(net.initial)
    clock = Fraction(0)
    for _ in range(bound):
        choices = enabled(net, marking)
        if len(choices) > 1:
            names = ", ".join(t.id for t in choices)
            raise NetStructureError(f"not a chain: {names} are enabled together")
        if not choices:
            trajectory.append((clock, clock + HOLD_DURATION, None, marking))
            return trajectory
        t = choices[0]
        trajectory.append((clock, clock + t.duration, t.id, marking))
        marking = fire(net, marking, t)
        clock += t.duration
    raise NetStructureError(f"no quiescence after {bound} steps")


def replayed_simulate(net: Net) -> list[tuple]:
    """``(t0, t1, fired, marking)`` per interval of ``simulate``."""
    intervals = simulate(net)
    return [(iv.t0, iv.t1, iv.fired, marking)
            for iv, marking in zip(intervals, markings(net, intervals))]


def replay(run, net):
    try:
        return run(net)
    except NetStructureError as failure:
        return str(failure)


_DURATIONS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3))


def _net(rng, n_places, arcs, marked):
    """Net over places p0..; ``arcs`` is a list of (inputs, outputs) index lists."""
    places = tuple(Place(f"p{i}", PlaceKind.CONTROL) for i in range(n_places))
    transitions = []
    # ids out of net order, so that only the net can give the order of names
    for k, (inputs, outputs) in zip(_shuffled(rng, range(len(arcs))), arcs):
        effect = tuple(
            (f"p{i}", PetriToken.of(by=k)) for i in dict.fromkeys(outputs) if rng.random() < 0.3
        )
        transitions.append(Transition(
            f"t{k}", f"step {k}", rng.choice(_DURATIONS),
            tuple(f"p{i}" for i in inputs), tuple(f"p{i}" for i in outputs), effect,
        ))
    initial = {p.id: () for p in places}
    for i in marked:
        tokens = initial[f"p{i}"]
        initial[f"p{i}"] = (*tokens, PetriToken.of(at=i, n=len(tokens)))
    return Net(places, tuple(transitions), initial)


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def chains(rng):
    for _ in range(30):
        n = rng.randint(0, 6)
        yield _net(rng, n + 1, [([k], [k + 1]) for k in range(n)], [0])


def late_side_inputs(rng):
    # control places 0..n, side places n+1..2n; side k is marked at the start,
    # by an earlier transition, or never; inputs come in any order, so a
    # transition may first wait on its side place rather than its control place
    for _ in range(60):
        n = rng.randint(1, 6)
        arcs = [([k, n + 1 + k], [k + 1]) for k in range(n)]
        marked = [0]
        for k in range(n):
            fill = rng.choice(("start", "earlier", "never")) if k else "start"
            if fill == "start":
                marked.append(n + 1 + k)
            elif fill == "earlier":
                arcs[rng.randrange(k)][1].append(n + 1 + k)
        yield _net(rng, 2 * n + 1, [(_shuffled(rng, i), o) for i, o in arcs], marked)


def branchings(rng):
    # a chain of 0-3 steps fills a hub place that 3-5 transitions read
    for _ in range(30):
        n, fan = rng.randint(0, 3), rng.randint(3, 5)
        hub = n + 1 + fan
        arcs = [([k], [k + 1]) for k in range(n)]
        arcs[-1:] = [([n - 1], [n, hub])] if n else []
        arcs += [([hub], [n + 1 + j]) for j in range(fan)]
        yield _net(rng, hub + 1, _shuffled(rng, arcs), [0] if n else [hub])


def rings(rng):
    for k in range(1, 5):
        yield _net(rng, k, [([i], [(i + 1) % k]) for i in range(k)], [0])


def random_nets(rng):
    # anything goes: several tokens a place, transitions without inputs,
    # repeated outputs, effects
    for _ in range(200):
        n_places = rng.randint(1, 6)
        arcs = [
            (rng.sample(range(n_places), rng.randint(0, min(3, n_places))),
             [rng.randrange(n_places) for _ in range(rng.randint(0, 3))])
            for _ in range(rng.randint(0, 6))
        ]
        marked = [rng.randrange(n_places) for _ in range(rng.randint(0, 4))]
        yield _net(rng, n_places, arcs, marked)


def corpus_nets(rng):
    for path in corpus_paths():
        yield compile_storyboard(parse_ok(path.read_text(encoding="utf-8"))).net


@pytest.mark.parametrize(
    "family", [chains, late_side_inputs, branchings, rings, random_nets, corpus_nets],
    ids=lambda family: family.__name__,
)
def test_simulate_matches_a_rescanning_replay(family):
    rng = random.Random(family.__name__)
    for net in family(rng):
        assert replay(replayed_simulate, net) == replay(rescanning_simulate, net)


def test_branching_names_every_enabled_transition_in_net_order():
    rng = random.Random(7)
    for net in branchings(rng):
        message = replay(simulate, net)
        named = message.removeprefix("not a chain: ").removesuffix(" are enabled together")
        ids = named.split(", ")
        assert len(ids) >= 3
        assert ids == [t.id for t in net.transitions if t.id in ids]
