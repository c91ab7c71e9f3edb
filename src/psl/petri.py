"""A small timed Petri net with attributed tokens.

Places hold tokens; tokens carry immutable attribute maps (a subject's
size, profile, screen position, and plane, or the camera's motion state).
Transitions consume one token per input place, produce one per output
place, and take a rational duration on an abstract clock.  An effect lists
explicit tokens for some output places; other outputs pass the consumed
token through unchanged, or get a blank token if nothing was consumed from
that place.

The engine itself is generic: `enabled` and `fire` work on any net,
including branching ones.  `simulate` accepts nets in which each
transition fires at most once and at most one transition is enabled at
every step, and returns the piecewise-constant marking trajectory, closing
with a final hold so the last marking occupies a real interval.  It keeps
transitions on waiting lists of empty places instead of rescanning the
net, but each step still copies the marking, O(places), for the
trajectory.  Markings are values; firing never mutates.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .stylesheet import HOLD_DURATION


class PlaceKind(Enum):
    SUBJECT = "subject"
    CAMERA = "camera"
    CONTROL = "control"


@dataclass(frozen=True, slots=True)
class Place:
    id: str
    kind: PlaceKind


@dataclass(frozen=True, slots=True)
class PetriToken:
    """Immutable attribute bag; attrs are sorted key/value pairs."""

    attrs: tuple[tuple[str, object], ...] = ()

    @classmethod
    def of(cls, **attrs: object) -> "PetriToken":
        return cls(tuple(sorted(attrs.items())))

    def get(self, key: str) -> object:
        for k, v in self.attrs:
            if k == key:
                return v
        return None


@dataclass(frozen=True, slots=True)
class Transition:
    id: str
    label: str
    duration: Fraction
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    #: Explicit tokens for some output places; the rest pass through.
    effect: tuple[tuple[str, PetriToken], ...] = ()

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"transition {self.id} has negative duration")


#: A marking maps every place id to the tokens it holds.
Marking = dict[str, tuple[PetriToken, ...]]


@dataclass(frozen=True)
class Net:
    places: tuple[Place, ...]
    transitions: tuple[Transition, ...]
    initial: Marking = field(default_factory=dict)

    def __post_init__(self) -> None:
        ids = [p.id for p in self.places]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate place ids")
        known = set(ids)
        for t in self.transitions:
            if len(set(t.inputs)) != len(t.inputs):
                raise ValueError(f"transition {t.id} lists an input place twice")
            for pid in (*t.inputs, *t.outputs, *(pid for pid, _ in t.effect)):
                if pid not in known:
                    raise ValueError(f"transition {t.id} uses unknown place {pid!r}")


class FireError(ValueError):
    """Firing a transition that is not enabled."""


class NetStructureError(ValueError):
    """Simulation refused: ambiguous choice or runaway net."""


def enabled(net: Net, marking: Marking) -> list[Transition]:
    """Transitions whose input places all hold at least one token."""
    return [
        t for t in net.transitions
        if all(marking.get(pid, ()) for pid in t.inputs)
    ]


def fire(net: Net, marking: Marking, transition: Transition) -> Marking:
    """One firing step; returns the successor marking (other places keep their tuples)."""
    if any(not marking.get(pid, ()) for pid in transition.inputs):
        raise FireError(f"transition {transition.id} is not enabled")
    out = dict(marking)
    consumed: dict[str, PetriToken] = {}
    for pid in transition.inputs:
        consumed[pid] = out[pid][0]
        out[pid] = out[pid][1:]
    explicit = dict(transition.effect)
    for pid in transition.outputs:
        if pid in explicit:
            token = explicit[pid]
        elif pid in consumed:
            token = consumed[pid]
        else:
            token = PetriToken()
        out[pid] = (*out.get(pid, ()), token)
    return out


@dataclass(frozen=True, slots=True)
class MarkingInterval:
    """The marking holding over ``[t0, t1)``; ``fired`` ends the interval."""

    t0: Fraction
    t1: Fraction
    marking: Marking
    fired: str | None  # transition id, None for the closing hold


def simulate(net: Net) -> list[MarkingInterval]:
    """Run the unique enabled transition to quiescence.

    Each interval shows the marking in force while the named transition
    runs; the last interval holds the final marking for ``HOLD_DURATION``.
    A chain fires each transition once, so the run stops after at most
    ``len(net.transitions) + 1`` steps.  Raises NetStructureError when
    more than one transition is enabled (a branching net needs a policy,
    not a clock) or the net has not stopped within that bound.

    The net is not rescanned: each transition is ready or waits on one
    empty input place, and only a firing's output places gain tokens, so
    a firing rechecks just the ready transitions and those waiting on its
    outputs.  A step costs O(arcs woken) plus the O(places) marking copy
    that ``fire`` makes for the trajectory.
    """
    bound = len(net.transitions) + 1
    trajectory: list[MarkingInterval] = []
    marking = dict(net.initial)
    clock = Fraction(0)
    ready: list[int] = []
    waiting: dict[str, list[int]] = {}

    def classify(indices: list[int]) -> None:
        for i in indices:
            empty = next(
                (pid for pid in net.transitions[i].inputs if not marking.get(pid, ())), None
            )
            if empty is None:
                ready.append(i)
            else:
                waiting.setdefault(empty, []).append(i)

    classify(list(range(len(net.transitions))))
    for _ in range(bound):
        if len(ready) > 1:
            names = ", ".join(net.transitions[i].id for i in sorted(ready))
            raise NetStructureError(f"not a chain: {names} are enabled together")
        if not ready:
            trajectory.append(
                MarkingInterval(clock, clock + HOLD_DURATION, marking, None)
            )
            return trajectory
        t = net.transitions[ready[0]]
        trajectory.append(MarkingInterval(clock, clock + t.duration, marking, t.id))
        marking = fire(net, marking, t)
        clock += t.duration
        woken = ready + [i for pid in t.outputs for i in waiting.pop(pid, ())]
        ready.clear()
        classify(woken)
    raise NetStructureError(f"no quiescence after {bound} steps")
