"""A small timed Petri net with attributed tokens.

Places hold tokens; tokens carry immutable attribute maps (a subject's
size, profile, screen position, and plane, or the camera's motion state).
Transitions consume one token per input place, produce one per output
place, and take a rational duration on an abstract clock.  An effect lists
explicit tokens for some output places; other outputs pass the consumed
token through unchanged, or get a blank token if nothing was consumed from
that place.

`simulate` accepts nets in which each transition fires at most once and
at most one transition is enabled at every step, and returns the
piecewise-constant marking trajectory, closing with a final hold so the
last marking occupies a real interval.  It keeps transitions on waiting
lists of empty places instead of rescanning the net, and keeps one
version list per place (the fat-node method of Driscoll, Sarnak, Sleator
& Tarjan, "Making data structures persistent", 1989): a firing appends
only to the places it changed, and each interval's marking is a
read-only view that bisects those lists.  A replay stores O(places +
arcs) tuples, which is O(transitions + places) for nets whose
transitions have a bounded number of arcs, as compiled storyboards do.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Mapping
from enum import Enum
from fractions import Fraction

from .diagnostics import Record, _set
from .stylesheet import HOLD_DURATION


class PlaceKind(Enum):
    SUBJECT = "subject"
    CAMERA = "camera"
    CONTROL = "control"


class Place(Record):
    __slots__ = ("id", "kind")

    def __init__(self, id: str, kind: PlaceKind) -> None:
        _set(self, "id", id)
        _set(self, "kind", kind)


class PetriToken(Record):
    """Immutable attribute bag; attrs are sorted key/value pairs."""

    __slots__ = ("attrs",)

    def __init__(self, attrs: tuple[tuple[str, object], ...] = ()) -> None:
        _set(self, "attrs", attrs)

    @classmethod
    def of(cls, **attrs: object) -> "PetriToken":
        return cls(tuple(sorted(attrs.items())))

    def get(self, key: str) -> object:
        for k, v in self.attrs:
            if k == key:
                return v
        return None


class Transition(Record):
    """``effect`` lists explicit tokens for some output places; the rest
    pass through."""

    __slots__ = ("id", "label", "duration", "inputs", "outputs", "effect")

    def __init__(self, id: str, label: str, duration: Fraction, inputs: tuple[str, ...],
                 outputs: tuple[str, ...], effect: tuple[tuple[str, PetriToken], ...] = ()) -> None:
        if duration < 0:
            raise ValueError(f"transition {id} has negative duration")
        _set(self, "id", id)
        _set(self, "label", label)
        _set(self, "duration", duration)
        _set(self, "inputs", inputs)
        _set(self, "outputs", outputs)
        _set(self, "effect", effect)


#: A marking maps every place id to the tokens it holds.
Marking = dict[str, tuple[PetriToken, ...]]


class Net(Record):
    __slots__ = ("places", "transitions", "initial")

    def __init__(self, places: tuple[Place, ...], transitions: tuple[Transition, ...],
                 initial: Marking | None = None) -> None:
        ids = [p.id for p in places]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate place ids")
        known = set(ids)
        for t in transitions:
            if len(set(t.inputs)) != len(t.inputs):
                raise ValueError(f"transition {t.id} lists an input place twice")
            for pid in (*t.inputs, *t.outputs, *(pid for pid, _ in t.effect)):
                if pid not in known:
                    raise ValueError(f"transition {t.id} uses unknown place {pid!r}")
        _set(self, "places", places)
        _set(self, "transitions", transitions)
        _set(self, "initial", {} if initial is None else initial)


class NetStructureError(ValueError):
    """Simulation refused: ambiguous choice or runaway net."""


def _changes(
    marking: Mapping[str, tuple[PetriToken, ...]], transition: Transition
) -> dict[str, tuple[PetriToken, ...]]:
    """The new tuple of each place an enabled transition's firing changes.

    Each input gives up its oldest token; each output gains its explicit
    effect token, else the token consumed from it, else a blank one.
    """
    changed: dict[str, tuple[PetriToken, ...]] = {}
    consumed: dict[str, PetriToken] = {}
    for pid in transition.inputs:
        tokens = marking[pid]
        consumed[pid] = tokens[0]
        changed[pid] = tokens[1:]
    explicit = dict(transition.effect)
    for pid in transition.outputs:
        if pid in explicit:
            token = explicit[pid]
        elif pid in consumed:
            token = consumed[pid]
        else:
            token = PetriToken()
        before = changed[pid] if pid in changed else marking.get(pid, ())
        changed[pid] = (*before, token)
    return changed


class _MarkingView(Mapping[str, tuple[PetriToken, ...]]):
    """Read-only marking after ``step`` firings, read from per-place version lists.

    ``versions[pid]`` holds two parallel lists: the steps at which the
    place changed, ascending, and the tuple it held from each of them on.
    A place missing from the initial marking is absent until a firing
    first outputs to it.
    """

    __slots__ = ("_versions", "_step")

    def __init__(self, versions: dict[str, tuple[list[int], list]], step: int) -> None:
        self._versions = versions
        self._step = step

    def __getitem__(self, pid: str) -> tuple[PetriToken, ...]:
        steps, values = self._versions[pid]
        i = bisect_right(steps, self._step) - 1
        if i < 0:
            raise KeyError(pid)
        return values[i]

    def __iter__(self) -> Iterator[str]:
        step = self._step
        return (pid for pid, (steps, _) in self._versions.items() if steps[0] <= step)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


class MarkingInterval(Record):
    """The marking holding over ``[t0, t1)``; ``fired`` ends the interval:
    a transition id, or None for the closing hold."""

    __slots__ = ("t0", "t1", "marking", "fired")

    def __init__(self, t0: Fraction, t1: Fraction, marking: Mapping[str, tuple[PetriToken, ...]],
                 fired: str | None) -> None:
        _set(self, "t0", t0)
        _set(self, "t1", t1)
        _set(self, "marking", marking)
        _set(self, "fired", fired)


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
    outputs.  One working marking changes in place, and each firing
    appends its changed places' new tuples to their version lists, so a
    step costs O(arcs touched) time and memory, and every interval's
    marking is a view of those lists.
    """
    bound = len(net.transitions) + 1
    trajectory: list[MarkingInterval] = []
    marking = dict(net.initial)
    versions = {pid: ([0], [tokens]) for pid, tokens in marking.items()}
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
    for step in range(bound):
        if len(ready) > 1:
            names = ", ".join(net.transitions[i].id for i in sorted(ready))
            raise NetStructureError(f"not a chain: {names} are enabled together")
        view = _MarkingView(versions, step)
        if not ready:
            trajectory.append(MarkingInterval(clock, clock + HOLD_DURATION, view, None))
            return trajectory
        t = net.transitions[ready[0]]
        end = clock + t.duration
        trajectory.append(MarkingInterval(clock, end, view, t.id))
        changed = _changes(marking, t)
        marking.update(changed)
        for pid, tokens in changed.items():
            steps, values = versions.setdefault(pid, ([], []))
            steps.append(step + 1)
            values.append(tokens)
        clock = end
        woken = ready + [i for pid in t.outputs for i in waiting.pop(pid, ())]
        ready.clear()
        classify(woken)
    raise NetStructureError(f"no quiescence after {bound} steps")
