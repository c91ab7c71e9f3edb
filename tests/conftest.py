"""Shared helpers: corpus locations, a strict parse and a fresh interpreter."""
from __future__ import annotations

import subprocess
import sys
import warnings
from pathlib import Path

import psl
from psl import Severity, parse_storyboard

pytest_plugins = ["pytester"]

# To report a failing @given test, hypothesis's pytest plugin imports
# ``hypothesis.extra._patching``, whose import raises a DeprecationWarning
# (``mypy_extensions.TypedDict``).  Under ``filterwarnings = ["error"]`` that
# warning aborts the whole run with an INTERNALERROR, hiding every later
# failure; importing the module here, with the warning ignored for this
# import alone, keeps the run going.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin reports no patch
        pass

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
BROKEN_DIR = CORPUS_DIR / "broken"


def corpus_paths() -> list[Path]:
    return sorted(CORPUS_DIR.glob("*.psl"))


def broken_paths() -> list[Path]:
    return sorted(BROKEN_DIR.glob("*.psl"))


def fresh_stdout(code: str) -> str:
    """What a fresh interpreter that runs ``code`` prints, with this test
    run's ``psl`` first on the path."""
    src = str(Path(psl.__file__).resolve().parent.parent)
    script = f"import sys; sys.path.insert(0, {src!r})\n{code}"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, timeout=120)
    return done.stdout


def parse_ok(text: str):
    """Parse text that must produce a tree and no errors."""
    sb, diagnostics = parse_storyboard(text)
    assert sb is not None, [d.to_dict() for d in diagnostics]
    assert not any(d.severity is Severity.ERROR for d in diagnostics)
    return sb
