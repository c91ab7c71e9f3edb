"""The test harness itself: one failing test must not hide another."""
from __future__ import annotations

import os
from pathlib import Path

import psl

PLANTED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n != n


def test_a_failing_plain_test_after_it():
    assert False
'''


def test_a_failing_property_test_does_not_stop_the_run(pytester, monkeypatch):
    """Run under this suite's conftest and its ``filterwarnings = error``."""
    # psl first, then the inherited path, which may be where pytest is found
    src = str(Path(psl.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    pytester.makeconftest(Path(__file__).with_name("conftest.py").read_text(encoding="utf-8"))
    pytester.makeini("[pytest]\nfilterwarnings = error\n")
    pytester.makepyfile(test_planted=PLANTED)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=2)
