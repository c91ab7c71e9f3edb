"""Prose storyboards: parse, validate, compile to timed Petri nets, sketch.

The pipeline reads film-shot prose ("MS on Albert and Beatrix, Albert
crosses Beatrix."), checks its continuity, compiles it into a timed Petri
net whose simulation yields a timeline of screen compositions, and renders
each visible frame as a deterministic SVG sketch.
"""
from .analysis import (
    ShotCategory,
    StateId,
    classify_shot,
    event_states,
    infer_target,
    validate,
)
from .ast import (
    Composition,
    ContinueTo,
    CraneTo,
    CraneWith,
    Cross,
    DollyTo,
    DollyWith,
    Enter,
    Exit,
    FlatComposition,
    Lock,
    Move,
    PanTo,
    PanWith,
    Profile,
    React,
    ScreenAnchor,
    ScreenEvent,
    ScreenFraction,
    ScreenPosition,
    Shot,
    ShotTransition,
    Side,
    Size,
    Speak,
    Storyboard,
    SubjectSpec,
    Touch,
    Use,
)
from .compiler import (
    CompiledStoryboard,
    CompileError,
    TimelineEntry,
    compile_storyboard,
    composition_of_marking,
    shot_frames,
    timeline,
)
from .diagnostics import Diagnostic, Severity, Span, has_errors
from .formatter import (
    format_composition,
    format_event,
    format_shot,
    format_storyboard,
    format_subject,
)
from .generator import generate_sentence, generate_storyboard, random_composition
from .lexer import tokenize
from .parser import parse_storyboard
from .petri import Marking, Net, PetriToken, Place, Transition, simulate
from .render import FrameLayout, layout, render_frame, render_storyboard
from .stylesheet import (
    DEFAULT_STYLESHEET,
    HOLD_DURATION,
    Stylesheet,
    StylesheetError,
    load_stylesheet,
    parse_stylesheet,
    validate_stylesheet,
)

__version__ = "0.1.0"
