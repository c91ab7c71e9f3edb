"""Replay of compiled nets on generated boards, beyond the corpus.

The draws are derandomized, so every run checks the same examples.  The
scale test replays a board far larger than any in the corpus under a
fixed memory bound: each interval's marking is a view of per-place
version lists, not a copy of the whole marking.
"""
from __future__ import annotations

import random
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from psl import (
    HOLD_DURATION,
    ShotTransition,
    Storyboard,
    compile_storyboard,
    composition_of_marking,
    generate_storyboard,
    simulate,
    timeline,
)


@settings(derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6))
def test_replay_reconstructs_every_folded_frame(rng, depth):
    compiled = compile_storyboard(generate_storyboard(rng, depth))
    intervals = simulate(compiled.net)
    assert len(intervals) == len(compiled.compositions)
    for k, interval in enumerate(intervals):
        assert composition_of_marking(interval.marking) == compiled.compositions[k], k
    entries = timeline(compiled)
    total = sum(t.duration for t in compiled.net.transitions) + HOLD_DURATION
    assert sum(e.t1 - e.t0 for e in entries) == total


def long_board(shots: int) -> Storyboard:
    """Generated boards joined by cuts, cut back to ``shots`` shots."""
    board_shots, joins = [], []
    seed = 0
    while len(board_shots) < shots:
        sb = generate_storyboard(random.Random(seed), 6)
        if board_shots:
            joins.append(ShotTransition.CUT)
        board_shots += sb.shots
        joins += sb.joins
        seed += 1
    return Storyboard(tuple(board_shots[:shots]), tuple(joins[:shots - 1]))


def test_a_3200_shot_replay_stays_within_50_mb():
    compiled = compile_storyboard(long_board(3200))
    tracemalloc.start()
    try:
        intervals = simulate(compiled.net)
        entries = timeline(compiled)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(intervals) == len(compiled.net.transitions) + 1
    assert entries[-1].shot_index == 3199
    assert peak < 50 * 2**20, f"replay peaked at {peak / 2**20:.1f} MiB"
