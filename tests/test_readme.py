"""The README's Python examples and ``$ psl`` transcripts run as written."""
from __future__ import annotations

import re
import shlex
import shutil
from pathlib import Path

import pytest
from conftest import CORPUS_DIR

from psl.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)


def transcripts():
    """Each ``$ psl`` line of the sh blocks: its arguments, the lines shown
    after it, and the code a following ``$ echo $?`` shows, else None."""
    found = []
    for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, re.M | re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ psl "):
                continue
            end = next((j for j in range(i + 1, len(lines)) if lines[j].startswith("$ ")), len(lines))
            code = int(lines[end + 1]) if lines[end:end + 1] == ["$ echo $?"] else None
            found.append((line[len("$ psl "):], lines[i + 1:end], code))
    return found


TRANSCRIPTS = transcripts()


def test_the_readme_has_python_examples():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize("code", EXAMPLES, ids=[f"example{i}" for i in range(1, len(EXAMPLES) + 1)])
def test_a_readme_example_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})


def test_the_readme_has_psl_transcripts():
    assert {"check", "fmt", "render"} <= {command.split()[0] for command, _, _ in TRANSCRIPTS}
    assert any(code is not None for _, _, code in TRANSCRIPTS)


@pytest.mark.parametrize("command, shown, code", TRANSCRIPTS, ids=[t[0] for t in TRANSCRIPTS])
def test_a_readme_transcript_prints_what_it_shows(capsys, monkeypatch, tmp_path, command, shown, code):
    # In a scratch directory with its own corpus, so `render --out frames/` writes there.
    shutil.copytree(CORPUS_DIR, tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    got = main(shlex.split(command))
    captured = capsys.readouterr()
    assert (captured.out + captured.err).splitlines() == shown
    if code is not None:
        assert got == code
