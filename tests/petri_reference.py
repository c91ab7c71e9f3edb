"""Reference stepper for timed Petri nets: enabling and firing as defined.

``enabled`` rescans every transition and ``fire`` returns a whole new
marking, moving the tokens with its own code: each input gives up its
oldest token, and each output gains its explicit effect token, else the
token consumed from it, else a blank one.  It shares no stepping code
with ``psl.petri.simulate``, so the replay differential in
``test_petri.py`` checks one definition against another.  Do not
optimise it: its worth is that it reads as the definition does.
"""
from __future__ import annotations

from psl.petri import Marking, Net, PetriToken, Transition


class FireError(ValueError):
    """Firing a transition that is not enabled."""


def enabled(net: Net, marking: Marking) -> list[Transition]:
    """Transitions whose input places all hold at least one token."""
    return [t for t in net.transitions if all(marking.get(pid, ()) for pid in t.inputs)]


def fire(net: Net, marking: Marking, transition: Transition) -> Marking:
    """One firing step; returns the successor marking (other places keep their tuples)."""
    if not all(marking.get(pid, ()) for pid in transition.inputs):
        raise FireError(f"transition {transition.id} is not enabled")
    after = dict(marking)
    consumed = {}
    for pid in transition.inputs:
        consumed[pid] = after[pid][0]
        after[pid] = after[pid][1:]
    explicit = dict(transition.effect)
    for pid in transition.outputs:
        token = explicit[pid] if pid in explicit else consumed.get(pid, PetriToken())
        after[pid] = after.get(pid, ()) + (token,)
    return after
