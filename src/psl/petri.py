"""A small timed Petri net with attributed tokens.

Places hold tokens; tokens carry immutable attribute maps (a subject's
size, profile, screen position, and plane, or the camera's motion state).
Transitions consume one token per input place, produce one per output
place, and take a rational duration on an abstract clock.  An effect lists
explicit tokens for some output places; other outputs pass the consumed
token through unchanged, or get a blank token if nothing was consumed from
that place.

The engine itself is generic: `enabled` and `fire` work on any net,
including branching ones.  `simulate` additionally requires determinism
(at most one enabled transition at every step) and returns the
piecewise-constant marking trajectory, closing with a final hold so the
last marking occupies a real interval.  Markings are values; firing never
mutates.
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

    def get(self, key: str, default: object = None) -> object:
        for k, v in self.attrs:
            if k == key:
                return v
        return default


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
    """One firing step; returns the successor marking."""
    if any(not marking.get(pid, ()) for pid in transition.inputs):
        raise FireError(f"transition {transition.id} is not enabled")
    out = {pid: list(tokens) for pid, tokens in marking.items()}
    consumed: dict[str, PetriToken] = {}
    for pid in transition.inputs:
        consumed[pid] = out[pid].pop(0)
    explicit = dict(transition.effect)
    for pid in transition.outputs:
        if pid in explicit:
            token = explicit[pid]
        elif pid in consumed:
            token = consumed[pid]
        else:
            token = PetriToken()
        out.setdefault(pid, []).append(token)
    return {pid: tuple(tokens) for pid, tokens in out.items()}


@dataclass(frozen=True, slots=True)
class MarkingInterval:
    """The marking holding over ``[t0, t1)``; ``fired`` ends the interval."""

    t0: Fraction
    t1: Fraction
    marking: Marking
    fired: str | None  # transition id, None for the closing hold


def simulate(
    net: Net,
    final_hold: Fraction = HOLD_DURATION,
    max_steps: int = 100_000,
) -> list[MarkingInterval]:
    """Run the unique enabled transition to quiescence.

    Each interval shows the marking in force while the named transition
    runs; the last interval holds the final marking for ``final_hold``.
    Raises NetStructureError when more than one transition is enabled
    (a branching net needs a policy, not a clock) or the net never stops.
    """
    trajectory: list[MarkingInterval] = []
    marking = dict(net.initial)
    clock = Fraction(0)
    for _ in range(max_steps):
        choices = enabled(net, marking)
        if len(choices) > 1:
            names = ", ".join(t.id for t in choices)
            raise NetStructureError(f"not a chain: {names} are enabled together")
        if not choices:
            trajectory.append(
                MarkingInterval(clock, clock + final_hold, marking, None)
            )
            return trajectory
        t = choices[0]
        trajectory.append(MarkingInterval(clock, clock + t.duration, marking, t.id))
        marking = fire(net, marking, t)
        clock += t.duration
    raise NetStructureError(f"no quiescence after {max_steps} steps")
