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
formatted to two decimals, no timestamps, no randomness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from xml.sax.saxutils import escape

from .ast import Composition, Profile, Storyboard
from .compiler import CompiledStoryboard, compile_storyboard, timeline
from .formatter import format_composition
from .stylesheet import DEFAULT_STYLESHEET, Stylesheet

FRAME_WIDTH = 480
FRAME_HEIGHT = 270
CAPTION_BAND = 40


@dataclass(frozen=True, slots=True)
class Figure:
    name: str
    x: Fraction          # centre, as a fraction of frame width
    height: Fraction     # as a fraction of frame height
    facing: Profile
    plane: int


@dataclass(frozen=True, slots=True)
class FrameLayout:
    width: int
    height: int
    figures: tuple[Figure, ...]  # draw order: background first
    caption: str


@dataclass(frozen=True, slots=True)
class Frame:
    filename: str
    svg: str


def layout(c: Composition, s: Stylesheet = DEFAULT_STYLESHEET) -> FrameLayout:
    """Place a fully specified composition; caption is its canonical text."""
    figures = []
    for plane_index, plane in enumerate(c.planes):
        try:
            height = s.figure_height_by_size[plane.size]
        except KeyError:
            raise ValueError(f"stylesheet has no figure height for {plane.size.name}") from None
        for subject in plane.subjects:
            if subject.profile is None or subject.screen is None:
                raise ValueError(f"layout needs a fully specified composition ({subject.name})")
            figures.append(
                Figure(subject.name, subject.screen.fraction, height, subject.profile, plane_index)
            )
    figures.sort(key=lambda f: (-f.plane, f.x))
    return FrameLayout(FRAME_WIDTH, FRAME_HEIGHT, tuple(figures), format_composition(c))


def _fmt(value: float) -> str:
    return f"{round(value, 2) + 0.0:.2f}"


def _figure_svg(fig: Figure, frame_w: int, frame_h: int) -> list[str]:
    h = float(fig.height) * frame_h
    x = float(fig.x) * frame_w
    r = h / 8.0
    y_top = max(frame_h - h, 0.06 * frame_h)
    head_cy = y_top + r
    opacity = 0.85 ** fig.plane
    stroke = max(1.0, h / 60.0)
    parts = [
        f'<g class="figure" data-name="{escape(fig.name)}" opacity="{_fmt(opacity)}" '
        f'stroke="#1a1a1a" stroke-width="{_fmt(stroke)}" stroke-linecap="round" fill="none">',
        f'<circle class="head" cx="{_fmt(x)}" cy="{_fmt(head_cy)}" r="{_fmt(r)}"/>',
        f'<line class="torso" x1="{_fmt(x)}" y1="{_fmt(y_top + 2 * r)}" '
        f'x2="{_fmt(x)}" y2="{_fmt(y_top + 0.55 * h)}"/>',
    ]
    shoulder_y = y_top + 0.30 * h
    hand_y = y_top + 0.48 * h
    hip_y = y_top + 0.55 * h
    foot_y = y_top + h
    for side in (-1, 1):
        parts.append(
            f'<line class="arm" x1="{_fmt(x)}" y1="{_fmt(shoulder_y)}" '
            f'x2="{_fmt(x + side * 0.16 * h)}" y2="{_fmt(hand_y)}"/>'
        )
    for side in (-1, 1):
        parts.append(
            f'<line class="leg" x1="{_fmt(x)}" y1="{_fmt(hip_y)}" '
            f'x2="{_fmt(x + side * 0.10 * h)}" y2="{_fmt(foot_y)}"/>'
        )
    if fig.facing is not Profile.BACK:
        a = math.radians(fig.facing.azimuth)
        parts.append(
            f'<line class="nose" x1="{_fmt(x)}" y1="{_fmt(head_cy)}" '
            f'x2="{_fmt(x - r * math.sin(a))}" y2="{_fmt(head_cy - 0.3 * r * math.cos(a))}"/>'
        )
    parts.append("</g>")
    return parts


def render_frame(l: FrameLayout, stamp: str | None = None) -> str:
    """One self-contained SVG 1.1 document for a laid-out frame."""
    total_h = l.height + CAPTION_BAND
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{l.width}" height="{total_h}" viewBox="0 0 {l.width} {total_h}">',
        f'<rect class="backdrop" x="0" y="0" width="{l.width}" height="{total_h}" fill="#ffffff"/>',
        '<defs><clipPath id="frame-clip">'
        f'<rect x="0" y="0" width="{l.width}" height="{l.height}"/>'
        "</clipPath></defs>",
        f'<rect class="frame" x="0.5" y="0.5" width="{l.width - 1}" height="{l.height - 1}" '
        'fill="none" stroke="#222222" stroke-width="1"/>',
        '<g class="figures" clip-path="url(#frame-clip)">',
    ]
    for fig in l.figures:
        lines.extend(_figure_svg(fig, l.width, l.height))
    lines.append("</g>")
    if stamp is not None:
        lines.append(
            f'<text class="stamp" x="{l.width - 8}" y="20" text-anchor="end" '
            f'font-family="monospace" font-size="14" fill="#aa3333">{escape(stamp)}</text>'
        )
    lines.append(
        f'<text class="caption" x="{l.width // 2}" y="{l.height + 25}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" fill="#222222">{escape(l.caption)}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_storyboard(sb: Storyboard, s: Stylesheet = DEFAULT_STYLESHEET) -> list[Frame]:
    """Compile ``sb`` and sketch its timeline, as ``render_compiled`` does."""
    return render_compiled(compile_storyboard(sb, s))


def render_compiled(compiled: CompiledStoryboard) -> list[Frame]:
    """One plain frame per stable entry, a stamped one per visible change.

    Zero-length entries (cuts) draw nothing; file names count frames
    within each shot, starting over after every join.
    """
    s = compiled.stylesheet
    frames: list[Frame] = []
    counts: dict[int, int] = {}
    for entry in timeline(compiled):
        if entry.t0 == entry.t1:
            continue
        index = counts.get(entry.shot_index, 0) + 1
        counts[entry.shot_index] = index
        filename = f"shot{entry.shot_index + 1:02d}_frame{index:02d}.svg"
        stamp = "in transition" if entry.in_transition else None
        frames.append(Frame(filename, render_frame(layout(entry.composition, s), stamp)))
    return frames
