"""Reference rebuild of a frame from the subject tokens of a marking.

``psl.compiler.timeline`` reads the compiler's own frames, so nothing in
``psl`` reads the subject tokens back.  This inverse of compilation does,
with code of its own, and the tests compare what it rebuilds from every
replayed marking with ``CompiledStoryboard.compositions``: the tokens the
net carries are checked, not trusted.
"""
from __future__ import annotations

from itertools import groupby
from typing import Mapping

from psl.ast import Composition, FlatComposition, ScreenFraction, SubjectSpec
from psl.compiler import subject_place
from psl.petri import PetriToken

_SUBJECT_PREFIX = subject_place("")


def composition_of_marking(marking: Mapping[str, tuple[PetriToken, ...]]) -> Composition:
    """Rebuild the frame from the subject tokens; inverse of compilation."""
    rows = []
    for pid, tokens in marking.items():
        if not pid.startswith(_SUBJECT_PREFIX) or not tokens:
            continue
        if len(tokens) != 1:
            raise ValueError(f"{pid} holds {len(tokens)} tokens, expected one")
        token = tokens[0]
        rows.append((token.get("plane"), token.get("slot"), pid[len(_SUBJECT_PREFIX):], token))
    if not rows:
        raise ValueError("no subject tokens in marking")
    rows.sort(key=lambda row: (row[0], row[1]))
    planes: list[FlatComposition] = []
    for plane_index, group in groupby(rows, key=lambda row: row[0]):
        members = list(group)
        if plane_index != len(planes):
            raise ValueError("plane indices are not contiguous")
        sizes = {member[3].get("size") for member in members}
        if len(sizes) != 1:
            raise ValueError(f"plane {plane_index} tokens disagree on size")
        if [member[1] for member in members] != list(range(len(members))):
            raise ValueError(f"plane {plane_index} slots are not contiguous")
        planes.append(
            FlatComposition(
                sizes.pop(),
                tuple(
                    SubjectSpec(name, token.get("profile"), ScreenFraction(token.get("screen")))
                    for _, _, name, token in members
                ),
            )
        )
    return Composition(tuple(planes))
