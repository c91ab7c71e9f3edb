"""Replay of compiled nets on generated boards, beyond the corpus.

The draws are derandomized, so every run checks the same examples.  The
timeline shows the compiler's own frame objects, and the subject tokens
of every replayed marking must rebuild to them.  The scale test replays a
board far larger than any in the corpus under a fixed memory bound: each
interval records only the places its firing changed, not a copy of the
whole marking.
"""
from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_paths, parse_ok
from psl import (
    HOLD_DURATION,
    ShotTransition,
    Storyboard,
    compile_storyboard,
    generate_storyboard,
    render,
    simulate,
    timeline,
)

from replay_reference import composition_of_marking, markings


@settings(derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6))
def test_replay_reconstructs_every_folded_frame(rng, depth):
    compiled = compile_storyboard(generate_storyboard(rng, depth))
    intervals = simulate(compiled.net)
    assert len(intervals) == len(compiled.compositions)
    for k, marking in enumerate(markings(compiled.net, intervals)):
        assert composition_of_marking(marking) == compiled.compositions[k], k
    entries = timeline(compiled)
    total = sum(t.duration for t in compiled.net.transitions) + HOLD_DURATION
    assert sum(e.t1 - e.t0 for e in entries) == total


def assert_timeline_shares_frames(compiled):
    """Entries hold the compiler's frames, shared across non-changing
    firings, and ``render_compiled`` lays out each shown frame once."""
    entries = timeline(compiled)
    frames = {id(c) for c in compiled.compositions}
    assert all(id(e.composition) in frames for e in entries)
    for before, after in zip(entries, entries[1:]):
        assert (after.composition is before.composition) is not before.in_transition
    laid_out, real_layout = [], render.layout

    def counting_layout(c, s):
        laid_out.append(id(c))
        return real_layout(c, s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(render, "layout", counting_layout)
        render.render_compiled(compiled)
    assert sorted(laid_out) == sorted({id(e.composition) for e in entries if e.t0 != e.t1})


@settings(derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6))
def test_timeline_shares_the_compilers_frames(rng, depth):
    assert_timeline_shares_frames(compile_storyboard(generate_storyboard(rng, depth)))


@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_corpus_timeline_shares_the_compilers_frames(path):
    assert_timeline_shares_frames(compile_storyboard(parse_ok(path.read_text(encoding="utf-8"))))


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
