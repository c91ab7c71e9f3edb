"""Oracles for every op, built from the inputs rather than from ``psl``.

A generated board's tree is the generator's output, so its shot count,
verbs and timeline length follow from the tree and the benchmark's own
stylesheet file, read here with a few lines of independent parsing.
Broken boards carry the codes planted in them.  Byte-level regressions
are caught by SHA-256 digests pinned for the default seed (and for the
corpus files, which do not depend on the seed).
"""
from __future__ import annotations

import hashlib
import json
import re
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction
from pathlib import Path

from inputs import Input

#: The language's closing beat: one unit per join and one at the very end.
HOLD = Fraction(1)
SVG_TAG = "{http://www.w3.org/2000/svg}svg"
_CODE_RE = re.compile(r": ([EW]\d{3}) ")

#: Surface verb of every event class the generator can draw.
VERB_OF_CLASS = {
    "Lock": "lock", "PanWith": "pan", "PanTo": "pan", "DollyWith": "dolly",
    "DollyTo": "dolly", "CraneWith": "crane", "CraneTo": "crane",
    "ContinueTo": "continue", "Speak": "speak", "React": "react", "Use": "use",
    "Touch": "touch", "Cross": "cross", "Enter": "enter", "Exit": "exit",
    "Move": "move",
}


def read_durations(path: Path) -> dict[str, Fraction]:
    """``duration.<verb> = <rational>`` lines of a stylesheet file."""
    durations = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, eq, value = line.partition("=")
        if eq and key.strip().startswith("duration."):
            durations[key.strip()[len("duration."):]] = Fraction(value.strip())
    return durations


class Oracle:
    """Judges one op's result; remembers simulate's output for render."""

    def __init__(self, durations: dict[str, Fraction], digests: dict[str, str],
                 run_dir: Path) -> None:
        self.durations = durations
        self.digests = digests
        self.run_dir = str(run_dir)
        self._visible: dict[str, int] = {}  # label -> nonzero simulate entries
        self.misses: list[str] = []

    def judge(self, inp: Input, cmd: str, rc: int | None, out: str, err: str,
              out_dir: Path | None) -> bool:
        try:
            why = self._why_wrong(inp, cmd, rc, out, err, svg_files(out_dir))
        except (ValueError, LookupError, TypeError) as bad:  # malformed JSON or fields
            why = f"unreadable output: {bad!r}"
        if why is None:
            pinned = self.digests.get(f"{inp.label}:{cmd}")
            if pinned is not None and pinned != self.digest(rc, out, err, out_dir):
                why = "output bytes differ from the pinned digest"
        if why is not None:
            self.misses.append(f"{inp.label} {cmd}: {why}")
        return why is None

    def digest(self, rc: int | None, out: str, err: str, out_dir: Path | None) -> str:
        """SHA-256 of the exit code, both streams and every SVG written, with
        the run's own directories replaced by placeholders."""
        h = hashlib.sha256(f"{rc}\0".encode())
        for text in (out, err):
            if out_dir is not None:
                text = text.replace(str(out_dir), "$OUT")
            h.update(text.replace(self.run_dir, "$RUN").encode("utf-8") + b"\0")
        for svg in svg_files(out_dir):
            h.update(svg.name.encode() + b"\0" + svg.read_bytes() + b"\0")
        return h.hexdigest()

    def _why_wrong(self, inp, cmd, rc, out, err, svgs) -> str | None:
        if rc is None:
            return "raised: " + err.strip().splitlines()[-1]
        if inp.codes:
            return self._broken(inp, cmd, rc, out, err)
        if rc != 0:
            return f"exit {rc}: {err.strip()[:200]}"
        if cmd == "check" and err:
            return f"diagnostics on a valid board: {err.strip()[:200]}"
        if cmd == "render":
            return self._render(inp, out, svgs)
        if cmd == "simulate":
            entries = json.loads(out)["entries"]
            self._visible[inp.label] = sum(e["t0"] != e["t1"] for e in entries)
        if inp.tree is None:
            return None  # corpus files: the pinned digests are the oracle
        if cmd == "fmt" and out != inp.text:
            return "fmt of canonical text is not a fixed point"
        if cmd == "compile":
            transitions = json.loads(out)["transitions"]
            events, joins = _events(inp.tree), len(inp.tree.joins)
            if len(transitions) != len(events) + 2 * joins:
                return f"{len(transitions)} transitions, expected {len(events) + 2 * joins}"
            total = sum(Fraction(t["duration"]) for t in transitions)
            if total + HOLD != self._end(inp):
                return f"transition durations sum to {total}"
        if cmd == "simulate":
            end = Fraction(entries[-1]["t1"])
            if end != self._end(inp):
                return f"timeline ends at {end}, expected {self._end(inp)}"
        if cmd == "stats":
            stats = json.loads(out)
            verbs = Counter(VERB_OF_CLASS[type(e).__name__] for e in _events(inp.tree))
            if stats["shot_count"] != len(inp.tree.shots):
                return f"shot_count {stats['shot_count']}, expected {len(inp.tree.shots)}"
            if {v: n for v, n in stats["verbs"].items() if n} != dict(verbs):
                return "verb histogram differs from the generated tree"
        return None

    def _end(self, inp: Input) -> Fraction:
        """Events and joins at stylesheet durations, a hold per join, the closing hold."""
        sb = inp.tree
        busy = sum(self.durations[VERB_OF_CLASS[type(e).__name__]] for e in _events(sb))
        joins = sum(self.durations[j.value] for j in sb.joins)
        return busy + joins + HOLD * len(sb.joins) + HOLD

    def _render(self, inp: Input, out: str, svgs: list[Path]) -> str | None:
        listed = [Path(line).name for line in out.splitlines()]
        if sorted(listed) != [p.name for p in svgs]:
            return "stdout does not list exactly the files written"
        if len(svgs) != self._visible.get(inp.label, -1):
            return f"{len(svgs)} SVG files for {self._visible.get(inp.label)} visible entries"
        for svg in svgs:
            try:
                root = ET.fromstring(svg.read_bytes())
            except ET.ParseError as bad:
                return f"{svg.name} is not well-formed: {bad}"
            if root.tag != SVG_TAG:
                return f"{svg.name} root is {root.tag}"
        return None

    def _broken(self, inp, cmd, rc, out, err) -> str | None:
        if cmd == "fmt" and inp.fmt_clean:
            return None if rc == 0 and out == inp.text else "fmt did not print the board back"
        if inp.label.startswith("corpus/"):
            # Pinned digests cover every op; check states the one known code.
            if cmd == "check" and (rc != 1 or _codes(err) != inp.codes):
                return f"exit {rc}, codes {dict(_codes(err))}, expected {dict(inp.codes)}"
            return None
        if rc != 1 or out:
            return f"exit {rc} with stdout {out[:80]!r}, expected exit 1"
        if _codes(err) != inp.codes:
            return f"codes {dict(_codes(err))}, expected {dict(inp.codes)}"
        return None


def svg_files(out_dir: Path | None) -> list[Path]:
    """What ``render`` wrote, in name order."""
    return sorted(out_dir.iterdir()) if out_dir is not None and out_dir.is_dir() else []


def _events(sb) -> list:
    return [e for shot in sb.shots for e in shot.events]


def _codes(err: str) -> Counter:
    return Counter(_CODE_RE.findall(err))
