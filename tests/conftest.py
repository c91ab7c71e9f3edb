"""Shared helpers: corpus locations and a strict parse."""
from __future__ import annotations

import warnings
from pathlib import Path

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


def parse_ok(text: str):
    """Parse text that must produce a tree and no errors."""
    sb, diagnostics = parse_storyboard(text)
    assert sb is not None, [d.to_dict() for d in diagnostics]
    assert not any(d.severity is Severity.ERROR for d in diagnostics)
    return sb
