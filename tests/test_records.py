"""Record classes: methods written in source, and the semantics of a
frozen, slotted dataclass.

Every record class is named here.  Its methods must come from the
package's own files, so that importing ``psl`` compiles no generated
code; and each sample instance must keep what the frozen dataclasses the
records replaced gave: value equality within one class, a hash of the
compared fields, immutability, no ``__dict__``, the repr, and
for syntax tree nodes ``__match_args__``, the ``dataclasses`` field list
and ``replace``.
"""
from __future__ import annotations

import copy
import dataclasses
import importlib
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import psl
from psl.analysis import StateId
from psl.ast import (
    Composition,
    CraneTo,
    DollyTo,
    DollyWith,
    FlatComposition,
    Lock,
    PanWith,
    Profile,
    React,
    ScreenAnchor,
    ScreenFraction,
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
from psl.compiler import compile_storyboard
from psl.diagnostics import Diagnostic, Severity, Span, error
from psl.petri import PetriToken, Place, PlaceKind, Transition
from psl.stylesheet import DEFAULT_STYLESHEET

RECORDS = {
    "psl.ast": (
        "ScreenFraction", "SubjectSpec", "FlatComposition", "Composition", "ScreenEvent",
        "Lock", "CameraWith", "CameraTo", "Speak", "React", "Use", "Touch", "Cross",
        "Enter", "Exit", "Move", "Shot", "Storyboard",
    ),
    "psl.diagnostics": ("Span", "Diagnostic"),
    "psl.petri": ("Place", "PetriToken", "Transition", "Net", "MarkingInterval"),
    "psl.compiler": ("TransitionInfo", "CompiledStoryboard", "TimelineEntry"),
    "psl.render": ("Figure", "FrameLayout", "Frame"),
    "psl.stylesheet": ("Stylesheet",),
}
CLASSES = {
    name: getattr(importlib.import_module(module), name)
    for module, names in RECORDS.items()
    for name in names
}
PACKAGE_DIR = Path(psl.__file__).resolve().parent


def test_every_record_class_is_listed():
    assert len(CLASSES) == 32


def _functions(cls: type):
    for name, value in vars(cls).items():
        if isinstance(value, property):
            inner = [value.fget, value.fset, value.fdel]
        elif isinstance(value, (classmethod, staticmethod)):
            inner = [value.__func__]
        else:
            inner = [value]
        for function in inner:
            if hasattr(function, "__code__"):
                yield name, function


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_no_method_is_generated(name):
    cls = CLASSES[name]
    for attr, function in _functions(cls):
        path = Path(function.__code__.co_filename)
        assert path.is_absolute() and path.resolve().is_relative_to(PACKAGE_DIR), (attr, str(path))


# --- sample instances ----------------------------------------------------

SPAN = Span(0, 4)
ANNA = SubjectSpec("Anna", Profile.LEFT, ScreenFraction(Fraction(1, 3)))
BOB = SubjectSpec("Bob")
PLANE = FlatComposition(Size.MS, (ANNA,))
COMP = Composition((PLANE,))
COMP2 = Composition((FlatComposition(Size.CU, (BOB,)),))
SHOT = Shot(COMP, (Speak("Anna"),))
BOARD = Storyboard((SHOT,))
PLACES = (Place("a", PlaceKind.CONTROL), Place("b", PlaceKind.CONTROL))
TRANSITION = Transition("t1", "step", Fraction(1), ("a",), ("b",))
COMPILED = compile_storyboard(BOARD)

#: Record name -> (field values, a change to a compared field or None).
SAMPLES = {
    "ScreenFraction": (dict(value=Fraction(1, 3)), dict(value=Fraction(1, 2))),
    "SubjectSpec": (dict(name="Anna", profile=Profile.LEFT, screen=ScreenAnchor.LEFT),
                    dict(screen=ScreenAnchor.RIGHT)),
    "FlatComposition": (dict(size=Size.MS, subjects=(ANNA,), span=SPAN), dict(size=Size.CU)),
    "Composition": (dict(planes=(PLANE,)), dict(planes=COMP2.planes)),
    "ScreenEvent": (dict(span=SPAN), None),
    "Lock": (dict(span=SPAN), None),
    "CameraWith": (dict(subject=ANNA, span=SPAN), dict(subject=BOB)),
    "CameraTo": (dict(target=COMP, span=SPAN), dict(target=COMP2)),
    "Speak": (dict(actor="Anna", span=SPAN), dict(actor="Bob")),
    "React": (dict(actor="Anna", to="Bob", span=SPAN), dict(to=None)),
    "Use": (dict(actor="Anna", prop="cup", span=SPAN), dict(prop="pen")),
    "Touch": (dict(actor="Anna", prop="cup", span=SPAN), dict(actor="Bob")),
    "Cross": (dict(actor="Anna", other="Bob", span=SPAN), dict(other="Cleo")),
    "Enter": (dict(actor="Anna", side=Side.LEFT, target=COMP, span=SPAN), dict(side=Side.RIGHT)),
    "Exit": (dict(actor="Anna", side=Side.LEFT, span=SPAN), dict(side=Side.RIGHT)),
    "Move": (dict(actor="Anna", target=COMP, span=SPAN), dict(target=COMP2)),
    "Shot": (dict(initial=COMP, events=(Lock(),), span=SPAN), dict(events=())),
    "Storyboard": (dict(shots=(SHOT, SHOT), joins=(ShotTransition.CUT,)),
                   dict(joins=(ShotTransition.DISSOLVE,))),
    "Span": (dict(start=0, end=4), dict(end=5)),
    "Diagnostic": (dict(severity=Severity.ERROR, code="E002", span=SPAN, message="unexpected"),
                   dict(span=Span(1, 4))),
    "Place": (dict(id="a", kind=PlaceKind.CONTROL), dict(kind=PlaceKind.SUBJECT)),
    "PetriToken": (dict(attrs=(("moving", True),)), dict(attrs=(("moving", False),))),
    "Transition": (dict(id="t1", label="step", duration=Fraction(1), inputs=("a",),
                        outputs=("b",), effect=(("b", PetriToken()),)),
                   dict(duration=Fraction(2))),
    "Net": (dict(places=PLACES, transitions=(TRANSITION,), initial={"a": (PetriToken(),)}),
            dict(initial={"b": (PetriToken(),)})),
    "MarkingInterval": (dict(t0=Fraction(0), t1=Fraction(1), changes={"a": ()}, fired="t1"),
                        dict(fired=None)),
    "TransitionInfo": (dict(kind="event", shot_index=0, state=StateId.STATIC_HOLD,
                            changes=False, verb="speak"),
                       dict(changes=True)),
    "CompiledStoryboard": ({name: getattr(COMPILED, name) for name in (
        "storyboard", "stylesheet", "net", "info", "compositions", "diagnostics")},
                           dict(compositions=(COMP2,))),
    "TimelineEntry": (dict(t0=Fraction(0), t1=Fraction(2), shot_index=0,
                           state=StateId.STATIC_HOLD, in_transition=False, composition=COMP),
                      dict(in_transition=True)),
    "Figure": (dict(name="Anna", x=Fraction(1, 3), height=Fraction(3, 4), facing=Profile.LEFT,
                    plane=0),
               dict(plane=1)),
    "FrameLayout": (dict(figures=(), caption="MS on Anna"),
                    dict(caption="CU on Anna")),
    "Frame": (dict(filename="shot01_frame01.svg", svg="<svg/>"), dict(svg="<svg></svg>")),
    "Stylesheet": (dict(default_profile=Profile.FRONT,
                        positions_by_cardinality={2: (Fraction(1, 4), Fraction(3, 4))},
                        duration_by_verb=dict(DEFAULT_STYLESHEET.duration_by_verb),
                        figure_height_by_size=dict(DEFAULT_STYLESHEET.figure_height_by_size)),
                   dict(default_profile=Profile.BACK)),
}
#: Records holding a dict, which the dataclasses they replace could not hash either.
UNHASHABLE = {"Net", "MarkingInterval", "CompiledStoryboard", "Stylesheet"}


def test_every_record_class_has_a_sample():
    assert SAMPLES.keys() == CLASSES.keys()


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_record_semantics(name):
    cls = CLASSES[name]
    values, change = SAMPLES[name]
    a, b = cls(**values), cls(**copy.deepcopy(values))
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    if change is not None:
        assert cls(**{**values, **change}) != a

    if "span" in values and name != "Diagnostic":  # a source span is not compared
        moved = cls(**{**values, "span": Span(7, 9)})
        assert moved == a and (name in UNHASHABLE or hash(moved) == hash(a))

    other = type("Other", (cls,), {"__slots__": ()})
    assert a != tuple(values.values()) and tuple(values.values()) != a
    assert a != other(**values) and other(**values) != a

    field = next(iter(values))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(a, field, values[field])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(a, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.extra = 1
    assert not hasattr(a, "__dict__")
    assert getattr(a, field) is values[field]

    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", sorted(CLASSES.keys() - UNHASHABLE))
def test_hash_is_that_of_the_compared_fields(name):
    """A record with one compared field hashes as its bare value, any
    other as the tuple of its compared fields; equal samples hash equal."""
    values = SAMPLES[name][0]
    compared = tuple(value for field, value in values.items()
                     if field != "span" or name == "Diagnostic")
    assert len(compared) == len(CLASSES[name]._compared)
    record = CLASSES[name](**values)
    assert hash(record) == hash(compared[0] if len(compared) == 1 else compared)
    assert hash(record) == hash(CLASSES[name](**copy.deepcopy(values)))


def test_hashed_samples_have_zero_one_and_several_compared_fields():
    counts = {len(CLASSES[name]._compared) for name in CLASSES.keys() - UNHASHABLE}
    assert {0, 1} < counts  # and at least one count above 1


def test_an_event_reads_none_for_a_field_it_lacks():
    vocabulary = ("actor", "other", "prop", "to", "subject", "target")
    assert [getattr(Lock(), name) for name in vocabulary] == [None] * 6
    assert [getattr(React("Anna", "Bob"), name) for name in vocabulary] == [
        "Anna", None, None, "Bob", None, None]
    assert PanWith(ANNA).subject is ANNA and CraneTo(COMP).target is COMP
    assert Speak("Anna").target is None and DollyWith(BOB).actor is None


def test_classes_that_share_fields_are_not_equal():
    assert PanWith(ANNA) != DollyWith(ANNA)
    assert DollyTo(COMP) != CraneTo(COMP)
    assert Use("Anna", "cup") != Touch("Anna", "cup")


def test_reprs():
    assert repr(ANNA) == (
        "SubjectSpec(name='Anna', profile=<Profile.LEFT: 'left'>, "
        "screen=ScreenFraction(value=Fraction(1, 3)))"
    )
    assert repr(FlatComposition(Size.MS, (BOB,), span=SPAN)) == (
        "FlatComposition(size=<Size.MS: 4>, "
        "subjects=(SubjectSpec(name='Bob', profile=None, screen=None),))"
    )
    assert repr(React("Anna", "Bob", span=SPAN)) == "React(actor='Anna', to='Bob')"
    assert repr(Lock(span=SPAN)) == "Lock()"
    assert repr(PanWith(BOB)) == "PanWith(subject=SubjectSpec(name='Bob', profile=None, screen=None))"
    assert repr(error("E002", Span(3, 5), "unexpected")) == (
        "Diagnostic(severity=<Severity.ERROR: 'error'>, code='E002', "
        "span=Span(start=3, end=5), message='unexpected')"
    )
    assert repr(PetriToken.of(moving=True)) == "PetriToken(attrs=(('moving', True),))"


#: ``__match_args__`` of each syntax tree class, as the dataclasses the
#: records replaced gave them: an event's keyword-only ``span`` is left
#: out, a plane's and a shot's positional one is kept.
AST_MATCH_ARGS = {
    "ScreenFraction": ("value",),
    "SubjectSpec": ("name", "profile", "screen"),
    "FlatComposition": ("size", "subjects", "span"),
    "Composition": ("planes",),
    "ScreenEvent": (),
    "Lock": (),
    "CameraWith": ("subject",),
    "PanWith": ("subject",),
    "DollyWith": ("subject",),
    "CraneWith": ("subject",),
    "CameraTo": ("target",),
    "PanTo": ("target",),
    "DollyTo": ("target",),
    "CraneTo": ("target",),
    "ContinueTo": ("target",),
    "Speak": ("actor",),
    "React": ("actor", "to"),
    "Use": ("actor", "prop"),
    "Touch": ("actor", "prop"),
    "Cross": ("actor", "other"),
    "Enter": ("actor", "side", "target"),
    "Exit": ("actor", "side"),
    "Move": ("actor", "target"),
    "Shot": ("initial", "events", "span"),
    "Storyboard": ("shots", "joins"),
}


def test_every_syntax_tree_class_has_match_args():
    syntax = {name for name, value in vars(psl.ast).items()
              if isinstance(value, type) and issubclass(value, psl.ast.Record)
              and value.__module__ == "psl.ast"}
    assert syntax == AST_MATCH_ARGS.keys() == AST_FIELDS.keys()


@pytest.mark.parametrize("name", AST_MATCH_ARGS)
def test_syntax_tree_fields(name):
    assert getattr(psl.ast, name).__match_args__ == AST_MATCH_ARGS[name]


#: ``dataclasses.fields`` of each syntax tree class, as the dataclasses the
#: records replaced listed them; tools count a tree's nodes by walking them.
AST_FIELDS = {
    "ScreenFraction": ("value",),
    "SubjectSpec": ("name", "profile", "screen"),
    "FlatComposition": ("size", "subjects", "span"),
    "Composition": ("planes",),
    "ScreenEvent": ("span",),
    "Lock": ("span",),
    "CameraWith": ("span", "subject"),
    "PanWith": ("span", "subject"),
    "DollyWith": ("span", "subject"),
    "CraneWith": ("span", "subject"),
    "CameraTo": ("span", "target"),
    "PanTo": ("span", "target"),
    "DollyTo": ("span", "target"),
    "CraneTo": ("span", "target"),
    "ContinueTo": ("span", "target"),
    "Speak": ("span", "actor"),
    "React": ("span", "actor", "to"),
    "Use": ("span", "actor", "prop"),
    "Touch": ("span", "actor", "prop"),
    "Cross": ("span", "actor", "other"),
    "Enter": ("span", "actor", "side", "target"),
    "Exit": ("span", "actor", "side"),
    "Move": ("span", "actor", "target"),
    "Shot": ("initial", "events", "span"),
    "Storyboard": ("shots", "joins"),
}


@pytest.mark.parametrize("name", AST_FIELDS)
def test_syntax_tree_dataclass_fields(name):
    cls = getattr(psl.ast, name)
    assert dataclasses.is_dataclass(cls)
    assert tuple(f.name for f in dataclasses.fields(cls)) == AST_FIELDS[name]
    assert tuple(f.name for f in dataclasses.fields(cls) if f.compare) == cls._compared


def test_a_dataclasses_walk_counts_every_node():
    def nodes(value):
        if isinstance(value, tuple):
            return sum(map(nodes, value))
        if not dataclasses.is_dataclass(value):
            return 0
        return 1 + sum(nodes(getattr(value, f.name)) for f in dataclasses.fields(value))

    # Storyboard, Shot, Composition, FlatComposition, SubjectSpec, ScreenFraction, Speak.
    assert nodes(BOARD) == 7


def test_replace_builds_a_new_subject():
    moved = dataclasses.replace(ANNA, screen=ScreenAnchor.RIGHT)
    assert moved == SubjectSpec("Anna", Profile.LEFT, ScreenAnchor.RIGHT)
    assert ANNA.screen == ScreenFraction(Fraction(1, 3))


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(999, 1000), Fraction(1, 10**30)])
def test_a_screen_fraction_takes_a_value_inside_the_frame(value):
    assert ScreenFraction(value).value == value


@pytest.mark.parametrize("value", [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2), 0, 1, 2, -1])
def test_a_screen_fraction_outside_the_frame_is_refused_by_value(value):
    with pytest.raises(ValueError) as refused:
        ScreenFraction(value)
    assert str(refused.value) == f"screen fraction {value} not in (0, 1)"


@pytest.mark.parametrize("value", [0.5, 0.0, 1.0, 1.5, "1/2", None])
def test_an_inexact_screen_fraction_is_refused(value):
    # A float position would fail in JSON and print text that does not reparse.
    with pytest.raises(ValueError) as refused:
        ScreenFraction(value)
    assert str(refused.value) == f"screen fraction {value} is not an exact number"


def test_defaults_coercion_and_checks():
    assert SubjectSpec("Anna") == SubjectSpec("Anna", None, None)
    assert React("Anna").to is None and Speak("Anna").span is None
    assert FlatComposition(Size.MS, [ANNA]).subjects == (ANNA,)
    assert Composition([PLANE]).planes == (PLANE,)
    assert Shot(COMP).events == () and Shot(COMP, [Lock()]).events == (Lock(),)
    assert Storyboard([SHOT]).shots == (SHOT,) and Storyboard([SHOT]).joins == ()
    assert PetriToken().attrs == () and TRANSITION.effect == ()
    net = psl.Net(PLACES, ())
    assert net.initial == {} and net.initial is not psl.Net(PLACES, ()).initial
    heights = psl.DEFAULT_STYLESHEET.figure_height_by_size
    assert psl.Stylesheet(figure_height_by_size=heights).positions_by_cardinality == {}
    assert COMPILED.diagnostics == ()
    with pytest.raises(TypeError):
        Speak("Anna", SPAN)  # span is keyword-only on events
    for bad in (lambda: Span(-1, 0), lambda: Span(2, 1), lambda: ScreenFraction(Fraction(1)),
                lambda: FlatComposition(Size.MS, ()), lambda: Composition(()),
                lambda: Storyboard(()), lambda: Storyboard((SHOT,), (ShotTransition.CUT,)),
                lambda: Transition("t", "t", Fraction(-1), (), ()),
                lambda: psl.Net(PLACES + PLACES, ()), lambda: psl.Stylesheet()):
        with pytest.raises(ValueError):
            bad()
    assert isinstance(Diagnostic(Severity.WARNING, "W201", SPAN, "m"), Diagnostic)
