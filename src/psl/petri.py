"""A small timed Petri net with attributed tokens.

Places hold tokens; tokens carry immutable attribute maps (a subject's
size, profile, screen position, and plane, or the camera's motion state).
Transitions consume one token per input place, produce one per output
place, and take a rational duration on an abstract clock.  An effect lists
explicit tokens for some output places; other outputs pass the consumed
token through unchanged, or get a blank token if nothing was consumed from
that place.

`replay` accepts nets in which each transition fires at most once and at
most one transition is enabled at every step, and yields the firing trace
as it fires: one interval per firing, recording the new tuple of each
place that firing changed, closing with a final hold so the last marking
occupies a real interval; `simulate` is its list, and ``compiler.timeline``
consumes it as it fires.  It keeps transitions on waiting lists of empty
places instead of rescanning the net, and one working marking that it
changes in place, so a replay's intervals hold O(arcs) tuples, which is
O(transitions) for nets whose transitions have a bounded number of arcs,
as compiled storyboards do.  The marking over any interval is the
initial marking with the changes of every earlier interval applied.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterator

from .diagnostics import Record
from .stylesheet import HOLD_DURATION, _exact


class PlaceKind(Enum):
    SUBJECT = "subject"
    CAMERA = "camera"
    CONTROL = "control"


class Place(Record):
    __slots__ = ("id", "kind")

    def __init__(self, id: str, kind: PlaceKind) -> None:
        set_id, set_kind = self._setters
        set_id(self, id)
        set_kind(self, kind)


class PetriToken(Record):
    """Immutable attribute bag; attrs are sorted key/value pairs."""

    __slots__ = ("attrs",)

    def __init__(self, attrs: tuple[tuple[str, object], ...] = ()) -> None:
        self._setters[0](self, attrs)

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
    pass through.  ``duration`` is exact and not negative: an ``int`` (not a
    ``bool``) or a ``Fraction``, else ValueError."""

    __slots__ = ("id", "label", "duration", "inputs", "outputs", "effect")

    def __init__(self, id: str, label: str, duration: Fraction, inputs: tuple[str, ...],
                 outputs: tuple[str, ...], effect: tuple[tuple[str, PetriToken], ...] = ()) -> None:
        if not _exact(duration):
            raise ValueError(f"transition {id} duration {duration!r} is not an exact number")
        # The reduced numerator carries the sign without a Fraction comparison.
        if duration.numerator < 0:
            raise ValueError(f"transition {id} has negative duration")
        set_id, set_label, set_duration, set_inputs, set_outputs, set_effect = self._setters
        set_id(self, id)
        set_label(self, label)
        set_duration(self, duration)
        set_inputs(self, inputs)
        set_outputs(self, outputs)
        set_effect(self, effect)


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
            for pid in (*t.inputs, *t.outputs):
                if pid not in known:
                    raise ValueError(f"transition {t.id} uses unknown place {pid!r}")
            for pid, _ in t.effect:
                if pid not in t.outputs:
                    raise ValueError(f"transition {t.id} has an effect on {pid!r}, not an output")
        initial = {} if initial is None else initial
        for pid in initial:
            if pid not in known:
                raise ValueError(f"initial marking names unknown place {pid!r}")
        set_places, set_transitions, set_initial = self._setters
        set_places(self, places)
        set_transitions(self, transitions)
        set_initial(self, initial)


class NetStructureError(ValueError):
    """Simulation refused: ambiguous choice or runaway net."""


#: The token an output gains when its transition consumed nothing from it;
#: tokens are immutable, so every such output shares this one.
_BLANK = PetriToken()


def _changes(marking: Marking, transition: Transition) -> Marking:
    """The new tuple of each place an enabled transition's firing changes.

    Each input gives up its oldest token; each output gains its explicit
    effect token, else the token consumed from it, else a blank one.
    """
    changed: Marking = {}
    consumed: dict[str, PetriToken] = {}
    for pid in transition.inputs:
        tokens = marking[pid]
        consumed[pid] = tokens[0]
        changed[pid] = tokens[1:]
    explicit = dict(transition.effect) if transition.effect else {}
    for pid in transition.outputs:
        if pid in explicit:
            token = explicit[pid]
        elif pid in consumed:
            token = consumed[pid]
        else:
            token = _BLANK
        before = changed[pid] if pid in changed else marking.get(pid, ())
        changed[pid] = (*before, token)
    return changed


class MarkingInterval(Record):
    """One step of a replay over ``[t0, t1)``: ``fired`` ends the interval, a
    transition id or None for the closing hold, and ``changes`` maps each
    place its firing consumed from or produced into to the tuple it holds
    afterwards (``{}`` for the hold)."""

    __slots__ = ("t0", "t1", "changes", "fired")

    def __init__(self, t0: Fraction, t1: Fraction, changes: Marking, fired: str | None) -> None:
        set_t0, set_t1, set_changes, set_fired = self._setters
        set_t0(self, t0)
        set_t1(self, t1)
        set_changes(self, changes)
        set_fired(self, fired)


def simulate(net: Net) -> list[MarkingInterval]:
    """The intervals of ``replay(net)``, as a list."""
    return list(replay(net))


def replay(net: Net) -> Iterator[MarkingInterval]:
    """Run the unique enabled transition to quiescence, yielding each interval as it fires.

    Each interval spans the named transition's run and records what its
    firing changed; the last interval holds the final marking for
    ``HOLD_DURATION`` and changes nothing.
    A chain fires each transition once, so the run stops after at most
    ``len(net.transitions) + 1`` steps.  Raises NetStructureError when
    more than one transition is enabled (a branching net needs a policy,
    not a clock) or the net has not stopped within that bound.

    The net is not rescanned: each transition is ready or waits on one
    empty input place, and only a firing's output places gain tokens, so
    a firing rechecks just the ready transitions and those waiting on its
    outputs.  Each firing's changes are recorded and then applied to the
    one working marking, so a step costs O(arcs touched) time and memory.
    """
    bound = len(net.transitions) + 1
    marking = dict(net.initial)
    clock = Fraction(0)
    ready: list[int] = []
    waiting: dict[str, list[int]] = {}

    def classify(indices: list[int]) -> None:
        for i in indices:
            for pid in net.transitions[i].inputs:
                if not marking.get(pid, ()):
                    waiting.setdefault(pid, []).append(i)
                    break
            else:
                ready.append(i)

    classify(list(range(len(net.transitions))))
    for _ in range(bound):
        if len(ready) > 1:
            names = ", ".join(net.transitions[i].id for i in sorted(ready))
            raise NetStructureError(f"not a chain: {names} are enabled together")
        if not ready:
            yield MarkingInterval(clock, clock + HOLD_DURATION, {}, None)
            return
        t = net.transitions[ready[0]]
        end = clock + t.duration
        changes = _changes(marking, t)
        yield MarkingInterval(clock, end, changes, t.id)
        marking.update(changes)
        clock = end
        woken = ready + [i for pid in t.outputs for i in waiting.pop(pid, ())]
        ready.clear()
        classify(woken)
    raise NetStructureError(f"no quiescence after {bound} steps")
