"""Seeded inputs for the three benchmark workloads.

Every input is drawn from the public generator (``generate_storyboard``)
and written out with ``format_storyboard``; the corpus files are copied
as they are.  Each input carries what its oracles need to know about it
by construction (the generated tree, or the diagnostic codes planted in
it), so no expectation is read back from the code under test.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from psl import Lock, Shot, ShotTransition, Storyboard, format_storyboard, generate_storyboard

#: Ops every input goes through, in this order (render relies on simulate).
OPS = ("check", "fmt", "compile", "simulate", "stats", "render")

REEL_SHOTS = (75, 150, 300)
#: Events kept per reel shot.  The generator averages two events a shot;
#: trimming every reel to the same total keeps replay cost, which grows
#: with the square of the transition count, from swinging with the seed.
REEL_EVENTS_PER_SHOT = 1.5
ROOM_BOARDS = 200
ROOM_DEPTH = 6
DRAFT_BOARDS = 200
DRAFT_SHOTS = (16, 24)
DRAFT_DEFECTS = (2, 4)
#: Names outside the generator's pool, so they are never on screen.
FOREIGN_NAMES = ("Xavier", "Yolanda", "Zeno")
BAD_CHARS = ("@", "$", "%", "&")

#: corpus/broken file -> the one error code ``check`` must report.
BROKEN_CORPUS_CODES = {
    "b01_missing_period.psl": "E002",
    "b02_bad_start.psl": "E002",
    "b03_fraction_range.psl": "E003",
    "b04_bad_char.psl": "E010",
    "b05_bad_word.psl": "E011",
    "b06_offscreen.psl": "E101",
    "b07_ordering.psl": "E102",
    "b08_enter_on_screen.psl": "E103",
    "b09_exit_absent.psl": "E104",
    "b10_cross_apart.psl": "E105",
    "b11_duplicate.psl": "E106",
    "b12_exit_empties.psl": "E107",
    "b13_position_clash.psl": "E108",
    "b14_enter_target_missing.psl": "E109",
}


@dataclass
class Input:
    """One storyboard file and what is known about it without the program."""

    label: str                      # stable name, also the digest key prefix
    text: str
    shots: int
    tree: Storyboard | None = None  # generated, valid tree (None for corpus and broken)
    #: Error codes every command but ``fmt`` must report (broken inputs).
    codes: Counter = field(default_factory=Counter)
    #: ``fmt`` accepts the file (continuity defects only) and prints it back.
    fmt_clean: bool = False


def feature_film(seed: int, corpus: Path) -> list[Input]:
    rng = random.Random(seed)
    reels = []
    for index, shots in enumerate(REEL_SHOTS, start=1):
        sb = _reel(rng, shots, round(shots * REEL_EVENTS_PER_SHOT))
        reels.append(_generated(f"reel{index}_{shots}", sb))
    return reels


def writers_room(seed: int, corpus: Path) -> list[Input]:
    rng = random.Random(seed)
    boards = [
        _generated(f"board{i:03d}", generate_storyboard(rng, ROOM_DEPTH))
        for i in range(ROOM_BOARDS)
    ]
    for path in sorted(corpus.glob("*.psl")):
        text = path.read_text(encoding="utf-8")
        boards.append(Input(f"corpus/{path.name}", text, _count_shots(text)))
    return boards


def broken_drafts(seed: int, corpus: Path) -> list[Input]:
    """Half the boards carry syntax defects, half continuity defects.

    The halves never mix: a board that does not parse is never
    validated, so continuity codes planted next to a syntax error would
    not be reported.
    """
    rng = random.Random(seed)
    drafts = []
    for i in range(DRAFT_BOARDS):
        sb = _reel(rng, rng.randint(*DRAFT_SHOTS), None)
        lines = format_storyboard(sb).split("\n")
        targets = rng.sample(range(len(lines)), rng.randint(*DRAFT_DEFECTS))
        syntax = i % 2 == 0
        codes: Counter = Counter()
        for at in targets:
            body = lines[at][:-1]  # every formatted shot line ends with its period
            if syntax and rng.random() < 0.5:
                lines[at] = body + ", ."  # an event slot with no event: E002
                codes["E002"] += 1
            elif syntax:
                lines[at] = f"{body} {rng.choice(BAD_CHARS)}."  # E010
                codes["E010"] += 1
            elif rng.random() < 0.5:
                lines[at] = f"{body}, {rng.choice(FOREIGN_NAMES)} speaks."  # E101
                codes["E101"] += 1
            else:
                side = rng.choice(("left", "right"))
                lines[at] = f"{body}, {rng.choice(FOREIGN_NAMES)} exits {side}."  # E104
                codes["E104"] += 1
        drafts.append(
            Input(f"draft{i:03d}", "\n".join(lines) + "\n", len(sb.shots),
                  codes=codes, fmt_clean=not syntax)
        )
    for path in sorted((corpus / "broken").glob("*.psl")):
        text = path.read_text(encoding="utf-8")
        drafts.append(
            Input(f"corpus/broken/{path.name}", text, _count_shots(text),
                  codes=Counter([BROKEN_CORPUS_CODES[path.name]]))
        )
    return drafts


WORKLOADS = {
    "feature_film": feature_film,
    "writers_room": writers_room,
    "broken_drafts": broken_drafts,
}


def _generated(label: str, sb: Storyboard) -> Input:
    return Input(label, format_storyboard(sb) + "\n", len(sb.shots), tree=sb)


def _reel(rng: random.Random, shots: int, events: int | None) -> Storyboard:
    """``shots`` shots from successive depth-6 draws, joined by seeded cuts
    and dissolves; with ``events`` given, trimmed to exactly that many."""
    drawn: list = []
    joins: list[ShotTransition] = []
    while len(drawn) < shots:
        board = generate_storyboard(rng, ROOM_DEPTH)
        if drawn:
            joins.append(rng.choice((ShotTransition.CUT, ShotTransition.DISSOLVE)))
        drawn.extend(board.shots)
        joins.extend(board.joins)
    drawn, joins = drawn[:shots], joins[:shots - 1]
    if events is not None:
        while sum(len(s.events) for s in drawn) < events:  # rare: top up the sparsest shot
            sparse = min(range(len(drawn)), key=lambda k: len(drawn[k].events))
            drawn[sparse] = max(generate_storyboard(rng, ROOM_DEPTH).shots,
                                key=lambda s: len(s.events))
        surplus = sum(len(s.events) for s in drawn) - events
        while surplus:
            # Drop a last event, never one that would leave a lock dangling.
            k = rng.choice([k for k, s in enumerate(drawn) if _trimmable(s)])
            drawn[k] = Shot(drawn[k].initial, drawn[k].events[:-1])
            surplus -= 1
    return Storyboard(tuple(drawn), tuple(joins))


def _trimmable(shot: Shot) -> bool:
    return bool(shot.events) and not (
        len(shot.events) >= 2 and isinstance(shot.events[-2], Lock)
    )


def _count_shots(text: str) -> int:
    """Shots in a corpus file: one per sentence, outside comment lines."""
    body = "\n".join(l for l in text.splitlines() if not l.lstrip().startswith("#"))
    return max(1, body.count("."))
