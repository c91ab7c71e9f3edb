"""Prose storyboards: parse, validate, compile to timed Petri nets, sketch.

The pipeline reads film-shot prose ("MS on Albert and Beatrix, Albert
crosses Beatrix."), checks its continuity, compiles it into a timed Petri
net whose simulation yields a timeline of screen compositions, and renders
each visible frame as a deterministic SVG sketch.

``import psl`` loads none of the pipeline's modules.  Each exported name
is imported from its module on first use (PEP 562), and kept here, so
``from psl import compile_storyboard`` loads the compiler and the modules
it needs, and nothing else.  ``psl.compiler`` and the other submodules
resolve the same way.
"""
import importlib

#: The exported names, by the module that defines them.
_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        globals()[name] = value  # later lookups find it without this call
        return value
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
