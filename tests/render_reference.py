"""Reference drawing of one stick figure, one coordinate at a time.

``_fmt`` and ``_figure_svg`` are the renderer's earlier code, kept
verbatim: each number goes through its own f-string and ``_fmt`` prints
"-0.00" as "0.00".  ``psl.render`` now fills one template per figure and
maps "-0.00" afterwards, and the figure tests in ``test_render.py``
compare the two.  Do not optimise it: its worth is that it formats each
coordinate as the rule reads.
"""
from __future__ import annotations

import math
from xml.sax.saxutils import escape as _escape

from psl.ast import Profile
from psl.render import FRAME_HEIGHT, FRAME_WIDTH, Figure


def _fmt(value: float) -> str:
    return "0.00" if (text := f"{value:.2f}") == "-0.00" else text


def _figure_svg(fig: Figure) -> str:
    h = float(fig.height) * FRAME_HEIGHT
    x = float(fig.x) * FRAME_WIDTH
    r = h / 8.0
    y_top = max(FRAME_HEIGHT - h, 0.06 * FRAME_HEIGHT)
    head_cy = y_top + r
    opacity = 0.85 ** fig.plane
    stroke = max(1.0, h / 60.0)
    parts = [
        f'<g class="figure" data-name="{_escape(fig.name)}" opacity="{_fmt(opacity)}" '
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
    return "\n".join(parts)
