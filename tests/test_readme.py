"""The README's Python examples run as written."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_the_readme_has_python_examples():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize("code", EXAMPLES, ids=[f"example{i}" for i in range(1, len(EXAMPLES) + 1)])
def test_a_readme_example_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
