"""Spans around each layer's public call, and the per-layer table.

The traced pass calls every layer's public function directly, on the
same inputs the CLI commands read, each inside a span.  Self times come
from subtraction between those separately timed calls: ``parse_storyboard``
minus ``tokenize`` is the parser's own time, ``timeline`` minus
``simulate`` is the timeline fold's, and a CLI command minus the library
calls it makes is the CLI's.
"""
from __future__ import annotations

import dataclasses
import gc
import json
import math
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from psl import (
    compile_storyboard,
    format_storyboard,
    layout,
    parse_storyboard,
    render_frame,
    render_storyboard,
    shot_frames,
    simulate,
    timeline,
    tokenize,
    validate,
)
from psl.diagnostics import has_errors
from psl.jsonio import net_to_dict, timeline_to_dict

from inputs import Input

#: Library calls each CLI command makes, by the span names below.
CLI_CALLS = {
    "check": ("parser.parse_storyboard", "analysis.validate"),
    "fmt": ("parser.parse_storyboard", "formatter.format_storyboard"),
    "compile": ("parser.parse_storyboard", "analysis.validate",
                "compiler.compile_storyboard", "jsonio.net"),
    "simulate": ("parser.parse_storyboard", "analysis.validate",
                 "compiler.compile_storyboard", "compiler.timeline", "jsonio.timeline"),
    "stats": ("parser.parse_storyboard", "analysis.validate"),
    "render": ("parser.parse_storyboard", "analysis.validate", "render.render_storyboard"),
}


class Tracer:
    """Spans kept in memory: name, start, end, parent index and op id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str):
        record = {"name": name, "op": op, "parent": self._open[-1] if self._open else None,
                  "start_ns": 0, "end_ns": 0, "counts": {}}
        self._open.append(len(self.spans))
        self.spans.append(record)
        gc.collect()  # start on a settled heap, as every CLI op does
        gc.freeze()
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record["counts"]
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": self.spans}) + "\n", encoding="utf-8")


def trace_layers(inp: Input, style, tracer: Tracer) -> None:
    """Each layer's public call on one input, in pipeline order."""
    op = inp.label
    with tracer.span("lexer.tokenize", op) as counts:
        tokens, _ = tokenize(inp.text)
    counts.update(tokens=len(tokens), bytes=len(inp.text.encode("utf-8")))
    with tracer.span("parser.parse_storyboard", op) as counts:
        sb, diagnostics = parse_storyboard(inp.text)
    counts.update(diagnostics=len(diagnostics), nodes=_nodes(sb), shots=inp.shots)
    if sb is None:
        return
    with tracer.span("formatter.format_storyboard", op) as counts:
        text = format_storyboard(sb)
    counts["bytes"] = len(text.encode("utf-8"))
    with tracer.span("analysis.validate", op) as counts:
        diagnostics = validate(sb, style)
    counts["diagnostics"] = len(diagnostics)
    if has_errors(diagnostics):
        return
    with tracer.span("compiler.shot_frames", op) as counts:
        frames = [shot_frames(shot, style) for shot in sb.shots]
    counts["frames"] = sum(len(f) for f in frames)
    with tracer.span("compiler.compile_storyboard", op) as counts:
        compiled = compile_storyboard(sb, style)
    counts.update(places=len(compiled.net.places), transitions=len(compiled.net.transitions))
    with tracer.span("petri.simulate", op) as counts:
        intervals = simulate(compiled.net)
    counts["steps"] = len(intervals)
    with tracer.span("compiler.timeline", op) as counts:
        entries = timeline(compiled)
    counts["entries"] = len(entries)
    with tracer.span("jsonio.net", op) as counts:
        net_json = json.dumps(net_to_dict(compiled), indent=2)
    counts["bytes"] = len(net_json)
    with tracer.span("jsonio.timeline", op) as counts:
        timeline_json = json.dumps(timeline_to_dict(entries), indent=2)
    counts["bytes"] = len(timeline_json)
    with tracer.span("render.frames", op) as counts:
        svgs = [
            render_frame(layout(e.composition, style), "in transition" if e.in_transition else None)
            for e in entries if e.t0 != e.t1
        ]
    counts.update(frames=len(svgs), bytes=sum(len(s) for s in svgs))
    with tracer.span("render.render_storyboard", op):
        render_storyboard(sb, style)


def simulate_peak_kb(inputs: list[Input], style) -> float:
    """Largest tracemalloc peak of one ``simulate`` call, untimed."""
    peak = 0
    for inp in inputs:
        sb, _ = parse_storyboard(inp.text)
        if sb is None or has_errors(validate(sb, style)):
            continue
        net = compile_storyboard(sb, style).net
        tracemalloc.start()
        try:
            simulate(net)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1024


#: Span whose presence shows a metric's layer ran; a layer that never ran
#: on a workload reports 0 and is listed as unsampled.
LAYER_SPAN = {
    "lexer": "lexer.tokenize",
    "parser": "parser.parse_storyboard",
    "analysis": "analysis.validate",
    "formatter": "formatter.format_storyboard",
    "compiler": "compiler.compile_storyboard",
    "petri": "petri.simulate",
    "replay": "petri.simulate",
    "timeline": "compiler.timeline",
    "render": "render.frames",
    "jsonio": "jsonio.net",
    "cli": "cli.check",
}

#: Counted metric -> (span, count key); kilobyte metrics sum two spans' bytes.
COUNTS = {
    "lexer.tokens": (("lexer.tokenize", "tokens"),),
    "parser.nodes": (("parser.parse_storyboard", "nodes"),),
    "parser.diagnostics": (("parser.parse_storyboard", "diagnostics"),),
    "analysis.diagnostics": (("analysis.validate", "diagnostics"),),
    "compiler.frames": (("compiler.shot_frames", "frames"),),
    "compiler.places": (("compiler.compile_storyboard", "places"),),
    "compiler.transitions": (("compiler.compile_storyboard", "transitions"),),
    "petri.steps": (("petri.simulate", "steps"),),
    "timeline.entries": (("compiler.timeline", "entries"),),
    "render.frames": (("render.frames", "frames"),),
    "render.svg_kb": (("render.frames", "bytes"),),
    "jsonio.kb": (("jsonio.net", "bytes"), ("jsonio.timeline", "bytes")),
    "formatter.kb": (("formatter.format_storyboard", "bytes"),),
}


def layer_metrics(spans: list[dict], scale: float) -> tuple[dict[str, float], set[str], list[dict]]:
    """Per-layer metrics of one traced pass, times multiplied by ``scale``;
    the metrics of layers that never ran; one row of stage times per input."""
    ms: dict[str, dict[str, float]] = defaultdict(dict)
    counts: dict[str, dict[str, dict]] = defaultdict(dict)
    for s in spans:
        t = ms[s["op"]]
        t[s["name"]] = t.get(s["name"], 0.0) + scale * (s["end_ns"] - s["start_ns"]) / 1e6
        if s["counts"]:
            counts[s["op"]][s["name"]] = s["counts"]
    ran = {s["name"] for s in spans}

    total: dict[str, float] = defaultdict(float)
    points: dict[str, list[tuple[int, float]]] = defaultdict(list)
    rows = []
    largest = (0, 0.0)  # (shots, replay share of simulate) of the largest compiled input
    for op, spent in ms.items():
        t = defaultdict(float, spent)
        c = counts[op]
        shots = c["parser.parse_storyboard"]["shots"]
        compiled = "compiler.compile_storyboard" in spent
        stage = {
            "lexer.ms": t["lexer.tokenize"],
            "parser.self_ms": t["parser.parse_storyboard"] - t["lexer.tokenize"],
            "analysis.ms": t["analysis.validate"],
            "compiler.fold_ms": t["compiler.shot_frames"],
            "compiler.build_ms": t["compiler.compile_storyboard"] - t["compiler.shot_frames"]
            - (t["analysis.validate"] if compiled else 0.0),
            "petri.ms": t["petri.simulate"],
            "timeline.self_ms": t["compiler.timeline"] - t["petri.simulate"],
            "render.ms": t["render.frames"],
            "render.recompile_ms": t["render.render_storyboard"] - t["render.frames"],
            "jsonio.ms": t["jsonio.net"] + t["jsonio.timeline"],
            "formatter.ms": t["formatter.format_storyboard"],
        }
        for cmd, calls in CLI_CALLS.items():
            stage[f"cli.{cmd}.self_ms"] = t[f"cli.{cmd}"] - sum(t[name] for name in calls)
        for name, value in stage.items():
            total[name] += value
        for name, sources in COUNTS.items():
            total[name] += sum(c.get(span, {}).get(key, 0) for span, key in sources)
        points["parser.growth"].append((shots, stage["parser.self_ms"]))
        if compiled:
            points["compiler.growth"].append(
                (shots, stage["compiler.fold_ms"] + stage["compiler.build_ms"]))
            points["petri.growth"].append((shots, stage["petri.ms"]))
            points["timeline.growth"].append((shots, stage["timeline.self_ms"]))
            if shots > largest[0]:
                replay = stage["petri.ms"] + stage["timeline.self_ms"]
                largest = (shots, 100 * replay / t["cli.simulate"])
        rows.append({
            "input": op, "shots": shots, "bytes": c["lexer.tokenize"]["bytes"],
            "transitions": c.get("compiler.compile_storyboard", {}).get("transitions", 0),
            "parse": t["parser.parse_storyboard"], "validate": t["analysis.validate"],
            "compile": t["compiler.compile_storyboard"], "simulate": t["petri.simulate"],
            "timeline": t["compiler.timeline"], "svg": t["render.frames"],
        })

    for name in ("render.svg_kb", "jsonio.kb", "formatter.kb"):
        total[name] /= 1024
    total["lexer.tokens_per_ms"] = total["lexer.tokens"] / total["lexer.ms"]
    total["petri.us_per_step"] = (
        1000 * total["petri.ms"] / total["petri.steps"] if total["petri.steps"] else 0.0)
    total["replay.share_of_simulate"] = largest[1]
    for name in ("parser.growth", "compiler.growth", "petri.growth", "timeline.growth"):
        total[name] = growth(points[name]) or 0.0
    unsampled = {name for name in total if LAYER_SPAN[name.split(".")[0]] not in ran}
    return dict(total), unsampled, rows


def growth(points: list[tuple[int, float]]) -> float | None:
    """Least-squares slope of log time on log shots, over the points with a
    positive time (a self time taken by subtraction can come out negative
    on a small input); None when fewer than two sizes remain."""
    pts = [(math.log(n), math.log(ms)) for n, ms in points if n > 0 and ms > 0]
    if len({x for x, _ in pts}) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def _nodes(node) -> int:
    """Syntax tree nodes: dataclass instances from ``psl.ast``."""
    if isinstance(node, tuple):
        return sum(_nodes(item) for item in node)
    if not dataclasses.is_dataclass(node) or type(node).__module__ != "psl.ast":
        return 0
    return 1 + sum(_nodes(getattr(node, f.name)) for f in dataclasses.fields(node))
