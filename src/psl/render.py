"""Deterministic SVG sketches of timeline frames.

One frame per visible timeline entry: stick figures sized by shot size,
placed by screen fraction, oriented by profile.  Apparent height is the
stylesheet's per-size fraction of the frame height; fractions above 1
mean a framing tighter than full body, and the figure is clipped by the
frame.  Full-body framings stand on the bottom edge; tighter ones pin
the head near the top edge.

Facing marks: a nose tick from the head centre toward screen offset
(-sin a, -0.3 cos a) scaled by the head radius, where a is the profile
azimuth.  All eight sectors get distinct ticks; a dead-back profile gets
a bare head.  Background planes fade by 15% opacity per plane step and
are drawn first.

Output is byte-deterministic: fixed attribute order, every coordinate
formatted to two decimals, no timestamps, no randomness.  A figure is
drawn with one fill of a ``%.2f`` template, and a coordinate that prints
as "-0.00" then reads "0.00"; the figure's name is joined after that
mapping, so it is never rewritten.  Escaping is local, so loading this
module loads no XML or HTTP code.  ``iter_frames`` makes frames one at a
time, and ``render_compiled`` is their list.  Its memos live for one run:
a figure's SVG is memoized by its name, the reduced terms of its two
fractions, its profile and its plane, and a layout by the identity of the
compiler's frame, which the timeline shares and the run keeps alive, so
neither a ``Fraction`` nor a ``Composition`` is hashed.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .ast import Composition, Profile, Storyboard
from .compiler import CompiledStoryboard, compile_storyboard, timeline
from .diagnostics import Record
from .formatter import format_composition
from .stylesheet import DEFAULT_STYLESHEET, Stylesheet

FRAME_WIDTH = 480
FRAME_HEIGHT = 270
CAPTION_BAND = 40


class Figure(Record):
    """One stick figure: ``x`` is its centre as a fraction of the frame
    width, ``height`` a fraction of the frame height."""

    __slots__ = ("name", "x", "height", "facing", "plane")

    def __init__(self, name: str, x: Fraction, height: Fraction, facing: Profile,
                 plane: int) -> None:
        set_name, set_x, set_height, set_facing, set_plane = self._setters
        set_name(self, name)
        set_x(self, x)
        set_height(self, height)
        set_facing(self, facing)
        set_plane(self, plane)


class FrameLayout(Record):
    """A placed frame; ``figures`` are in draw order, background first."""

    __slots__ = ("figures", "caption")

    def __init__(self, figures: tuple[Figure, ...], caption: str) -> None:
        set_figures, set_caption = self._setters
        set_figures(self, figures)
        set_caption(self, caption)


class Frame(Record):
    __slots__ = ("filename", "svg")

    def __init__(self, filename: str, svg: str) -> None:
        set_filename, set_svg = self._setters
        set_filename(self, filename)
        set_svg(self, svg)


def layout(c: Composition, s: Stylesheet = DEFAULT_STYLESHEET) -> FrameLayout:
    """Place a fully specified composition; caption is its canonical text.
    Figure heights come from ``s``; every ``Stylesheet`` has one per size."""
    figures = []
    for plane_index, plane in enumerate(c.planes):
        height = s.figure_height_by_size[plane.size]
        for subject in plane.subjects:
            if subject.profile is None or subject.screen is None:
                raise ValueError(f"layout needs a fully specified composition ({subject.name})")
            figures.append(
                Figure(subject.name, subject.screen.fraction, height, subject.profile, plane_index)
            )
    figures.sort(key=lambda f: (-f.plane, f.x))
    return FrameLayout(tuple(figures), format_composition(c))


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


#: A figure's geometry after its name, every number a ``%.2f`` field.
_FIGURE = "\n".join((
    '" opacity="%.2f" stroke="#1a1a1a" stroke-width="%.2f" stroke-linecap="round" fill="none">',
    '<circle class="head" cx="%.2f" cy="%.2f" r="%.2f"/>',
    '<line class="torso" x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f"/>',
    '<line class="arm" x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f"/>',
    '<line class="arm" x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f"/>',
    '<line class="leg" x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f"/>',
    '<line class="leg" x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f"/>',
))
#: The same, with a nose tick.
_FIGURE_FACING = _FIGURE + '\n<line class="nose" x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f"/>'


def _fill(template: str, values: tuple[float, ...]) -> str:
    """``template % values``, a field that reads "-0.00" printed as "0.00"."""
    return (template % values).replace('"-0.00"', '"0.00"')


def _figure_svg(fig: Figure) -> str:
    h = float(fig.height) * FRAME_HEIGHT
    x = float(fig.x) * FRAME_WIDTH
    r = h / 8.0
    y_top = max(FRAME_HEIGHT - h, 0.06 * FRAME_HEIGHT)
    head_cy = y_top + r
    shoulder_y = y_top + 0.30 * h
    hand_y = y_top + 0.48 * h
    hip_y = y_top + 0.55 * h
    foot_y = y_top + h
    values = (0.85 ** fig.plane, max(1.0, h / 60.0), x, head_cy, r, x, y_top + 2 * r, x, hip_y,
              x, shoulder_y, x - 0.16 * h, hand_y, x, shoulder_y, x + 0.16 * h, hand_y,
              x, hip_y, x - 0.10 * h, foot_y, x, hip_y, x + 0.10 * h, foot_y)
    template = _FIGURE
    if fig.facing is not Profile.BACK:
        a = math.radians(fig.facing.azimuth)
        template = _FIGURE_FACING
        values += (x, head_cy, x - r * math.sin(a), head_cy - 0.3 * r * math.cos(a))
    return f'<g class="figure" data-name="{_escape(fig.name)}{_fill(template, values)}\n</g>'


def render_frame(l: FrameLayout, stamp: str | None = None) -> str:
    """One self-contained SVG 1.1 document for a laid-out frame."""
    return _frame_svg(l, stamp, {})


_TOTAL_HEIGHT = FRAME_HEIGHT + CAPTION_BAND
#: Every sketch opens with these lines, up to its figures.
_FRAME_OPEN = "\n".join((
    f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{FRAME_WIDTH}" '
    f'height="{_TOTAL_HEIGHT}" viewBox="0 0 {FRAME_WIDTH} {_TOTAL_HEIGHT}">',
    f'<rect class="backdrop" x="0" y="0" width="{FRAME_WIDTH}" height="{_TOTAL_HEIGHT}" '
    'fill="#ffffff"/>',
    f'<defs><clipPath id="frame-clip"><rect x="0" y="0" width="{FRAME_WIDTH}" '
    f'height="{FRAME_HEIGHT}"/></clipPath></defs>',
    f'<rect class="frame" x="0.5" y="0.5" width="{FRAME_WIDTH - 1}" height="{FRAME_HEIGHT - 1}" '
    'fill="none" stroke="#222222" stroke-width="1"/>',
    '<g class="figures" clip-path="url(#frame-clip)">',
))


def _frame_svg(l: FrameLayout, stamp: str | None, drawn: dict[tuple, str]) -> str:
    lines = [_FRAME_OPEN]
    for fig in l.figures:
        # A key of ints, a str and a Profile hashes in C; a Fraction hashes in Python.
        x, height = fig.x, fig.height
        key = (fig.name, x.numerator, x.denominator, height.numerator, height.denominator,
               fig.facing, fig.plane)
        if (svg := drawn.get(key)) is None:
            svg = drawn[key] = _figure_svg(fig)
        lines.append(svg)
    lines.append("</g>")
    if stamp is not None:
        lines.append(
            f'<text class="stamp" x="{FRAME_WIDTH - 8}" y="20" text-anchor="end" '
            f'font-family="monospace" font-size="14" fill="#aa3333">{_escape(stamp)}</text>'
        )
    lines.append(
        f'<text class="caption" x="{FRAME_WIDTH // 2}" y="{FRAME_HEIGHT + 25}" '
        'text-anchor="middle" '
        f'font-family="monospace" font-size="12" fill="#222222">{_escape(l.caption)}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_storyboard(sb: Storyboard, s: Stylesheet = DEFAULT_STYLESHEET) -> list[Frame]:
    """Compile ``sb`` and sketch its timeline, as ``render_compiled`` does."""
    return render_compiled(compile_storyboard(sb, s))


def render_compiled(compiled: CompiledStoryboard) -> list[Frame]:
    """The frames of ``iter_frames(compiled)``, as a list."""
    return list(iter_frames(compiled))


def iter_frames(compiled: CompiledStoryboard) -> Iterator[Frame]:
    """One plain frame per stable entry, a stamped one per visible change, drawn when asked for.

    Zero-length entries (cuts) draw nothing; file names count frames
    within each shot, starting over after every join.
    """
    s = compiled.stylesheet
    counts: dict[int, int] = {}
    layouts: dict[int, FrameLayout] = {}
    drawn: dict[tuple, str] = {}
    for entry in timeline(compiled):
        if entry.t0 == entry.t1:
            continue
        index = counts.get(entry.shot_index, 0) + 1
        counts[entry.shot_index] = index
        filename = f"shot{entry.shot_index + 1:02d}_frame{index:02d}.svg"
        stamp = "in transition" if entry.in_transition else None
        if (l := layouts.get(id(entry.composition))) is None:
            l = layouts[id(entry.composition)] = layout(entry.composition, s)
        yield Frame(filename, _frame_svg(l, stamp, drawn))
