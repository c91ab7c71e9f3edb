"""Every stage does linear Python work in the number of shots.

Each stage runs under cProfile on seeded boards of 200 and 800 shots, and
the growth exponent of its call count, log(calls at 800 / calls at 200) / log 4,
may be at most 1.05.  Call counts are the same from run to run, so the test
cannot flake on a loaded host; it is blind to work inside one C call (a
``list.index`` in a loop, say), which only wall time shows.
"""
from __future__ import annotations

import cProfile
import math
import pstats
import random

import pytest

from psl import (
    ShotTransition,
    Storyboard,
    compile_storyboard,
    format_storyboard,
    generate_storyboard,
    parse_storyboard,
    timeline,
    tokenize,
    validate,
)
from psl.jsonio import net_json
from psl.render import render_compiled

SIZES = (200, 800)
MAX_EXPONENT = 1.05


def _board(shots: int) -> str:
    """The first ``shots`` shots of generated boards, seeds 0, 1, ..., cut together."""
    got: list = []
    joins: list = []
    seed = 0
    while len(got) < shots:
        sb = generate_storyboard(random.Random(seed), 6)
        joins += ([ShotTransition.CUT] if got else []) + list(sb.joins)
        got += sb.shots
        seed += 1
    return format_storyboard(Storyboard(tuple(got[:shots]), tuple(joins[:shots - 1])))


def _stages(text: str) -> dict:
    """Each stage as a call with no arguments, its input built beforehand."""
    sb = parse_storyboard(text)[0]
    compiled = compile_storyboard(sb)
    return {
        "lex": lambda: tokenize(text),
        "parse": lambda: parse_storyboard(text),
        "validate": lambda: validate(sb),
        "compile": lambda: compile_storyboard(sb),
        "timeline": lambda: timeline(compiled),
        "net JSON": lambda: net_json(compiled),
        "render": lambda: render_compiled(compiled),
    }


def _calls(stage) -> int:
    profile = cProfile.Profile()
    profile.runcall(stage)
    return pstats.Stats(profile).total_calls


@pytest.fixture(scope="module")
def call_counts() -> dict[str, tuple[int, ...]]:
    stages = [_stages(_board(shots)) for shots in SIZES]
    for stage in stages[0].values():  # first calls import and compile what they need
        stage()
    return {name: tuple(_calls(at[name]) for at in stages) for name in stages[0]}


@pytest.mark.parametrize(
    "stage", ["lex", "parse", "validate", "compile", "timeline", "net JSON", "render"]
)
def test_each_stage_makes_linearly_many_calls(call_counts, stage):
    small, large = call_counts[stage]
    exponent = math.log(large / small) / math.log(SIZES[1] / SIZES[0])
    assert exponent <= MAX_EXPONENT, (
        f"{stage}: {small} calls at {SIZES[0]} shots, {large} at {SIZES[1]}: "
        f"growth exponent {exponent:.3f}"
    )
