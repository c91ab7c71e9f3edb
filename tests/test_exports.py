"""The names ``psl`` exports, each loaded from its module on first use."""
from __future__ import annotations

import importlib

import pytest

import psl
from conftest import fresh_stdout

#: Every exported name, by the module that defines it.
EXPORTS = {
    "analysis": ("ShotCategory", "StateId", "classify_shot", "validate"),
    "ast": (
        "Composition", "ContinueTo", "CraneTo", "CraneWith", "Cross", "DollyTo", "DollyWith",
        "Enter", "Exit", "FlatComposition", "Lock", "Move", "PanTo", "PanWith", "Profile",
        "React", "ScreenAnchor", "ScreenEvent", "ScreenFraction", "ScreenPosition", "Shot",
        "ShotTransition", "Side", "Size", "Speak", "Storyboard", "SubjectSpec", "Touch", "Use",
    ),
    "compiler": (
        "CompiledStoryboard", "CompileError", "TimelineEntry", "compile_storyboard",
        "shot_frames", "timeline",
    ),
    "diagnostics": ("Diagnostic", "Severity", "Span", "has_errors"),
    "formatter": ("format_composition", "format_event", "format_shot", "format_storyboard"),
    "generator": ("generate_sentence", "generate_storyboard", "random_composition"),
    "lexer": ("tokenize",),
    "parser": ("parse_storyboard",),
    "petri": ("Marking", "Net", "PetriToken", "Place", "Transition", "simulate"),
    "render": ("layout", "render_frame", "render_storyboard"),
    "stylesheet": (
        "DEFAULT_STYLESHEET", "HOLD_DURATION", "Stylesheet", "StylesheetError",
        "load_stylesheet", "parse_stylesheet",
    ),
}
NAMES = {name for names in EXPORTS.values() for name in names}


def test_psl_exports_67_names():
    assert len(NAMES) == 67
    assert sorted(psl.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_export_is_its_module_attribute(module, name):
    assert getattr(psl, name) is getattr(importlib.import_module(f"psl.{module}"), name)


def test_dir_lists_every_export():
    assert NAMES <= set(dir(psl))


def test_a_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from psl import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES


def test_a_bare_import_loads_no_submodule_and_submodules_resolve():
    out = fresh_stdout(
        "import psl\n"
        "print(sorted(m for m in sys.modules if m.startswith('psl.')))\n"
        "print(psl.compiler.__name__, psl.compile_storyboard.__module__)"
    ).splitlines()
    assert out == ["[]", "psl.compiler psl.compiler"]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        psl.no_such_name
    assert not hasattr(psl, "__wrapped__")
