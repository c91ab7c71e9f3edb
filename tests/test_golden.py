"""Byte-identity gate: every CLI output over the corpus, pinned by digest.

Each case runs one command on one corpus file (valid or broken) with the
default stylesheet and hashes its exit code, standard output, standard
error and, for ``render``, every SVG written.  Paths that depend on where
the tests run are replaced by placeholders first.  A refactor that keeps
these digests keeps every byte the command line prints or writes.

To print fresh digests after a deliberate output change::

    PYTHONPATH=src python tests/test_golden.py > tests/golden.json
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from psl.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

COMMANDS = {
    "check": ["check"],
    "check-json": ["check", "--json"],
    "fmt": ["fmt"],
    "compile": ["compile"],
    "simulate": ["simulate"],
    "stats": ["stats"],
    "render": ["render"],
}


def _files() -> list[Path]:
    return sorted(CORPUS_DIR.glob("*.psl")) + sorted((CORPUS_DIR / "broken").glob("*.psl"))


def _key(path: Path, command: str) -> str:
    return f"{path.relative_to(CORPUS_DIR).as_posix()}:{command}"


def digest(path: Path, command: str) -> str:
    """SHA-256 of one command's exit code, both streams and any SVGs."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "frames"
        argv = [*COMMANDS[command], str(path)]
        if command == "render":
            argv += ["--out", str(out_dir)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        h = hashlib.sha256(f"{code}\0".encode())
        for text in (out.getvalue(), err.getvalue()):
            text = text.replace(str(out_dir), "$OUT").replace(str(CORPUS_DIR), "$CORPUS")
            h.update(text.encode("utf-8") + b"\0")
        svgs = sorted(out_dir.glob("*.svg")) if out_dir.is_dir() else []
        for svg in svgs:
            h.update(svg.name.encode() + b"\0" + svg.read_bytes() + b"\0")
        return h.hexdigest()


CASES = [(path, command) for path in _files() for command in COMMANDS]


@pytest.fixture(scope="module")
def pinned() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(_key(path, command) for path, command in CASES)


@pytest.mark.parametrize(
    "path, command", CASES, ids=[_key(path, command) for path, command in CASES]
)
def test_output_matches_the_pinned_digest(pinned, path, command):
    assert digest(path, command) == pinned[_key(path, command)]


if __name__ == "__main__":
    json.dump({_key(p, c): digest(p, c) for p, c in CASES}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
