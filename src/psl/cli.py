"""The ``psl`` command line tool.

Exit codes are uniform across subcommands: 0 on success, 1 when the
input is at fault (syntax, continuity, failed roundtrips), 2 when the
invocation is (unknown flags, unreadable files, unwritable directories).
Diagnostics go to standard error; artifacts (canonical text, JSON,
file listings) go to standard output.  Every command is a pure function
of its inputs, so repeated runs print identical bytes.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .analysis import ShotCategory, classify_shot, validate
from .ast import EVENT_VERBS, Size, Storyboard, storyboard_compositions
from .compiler import CompiledStoryboard, CompileError, compile_storyboard, timeline
from .diagnostics import Diagnostic, has_errors
from .formatter import format_storyboard
from .generator import generate_sentence
from .jsonio import SCHEMA_VERSION, net_to_dict, timeline_to_dict
from .parser import parse_storyboard
from .render import render_compiled
from .stylesheet import DEFAULT_STYLESHEET, Stylesheet, StylesheetError, parse_stylesheet


class _Exit(Exception):
    """Abort the command with a message and a specific exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _read_source(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise _Exit(2, f"psl: cannot read {path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise _Exit(2, f"psl: {path} is not valid UTF-8: {err}") from None


def _load_style(args: argparse.Namespace) -> Stylesheet:
    style_path = getattr(args, "style", None)
    if style_path is None:
        return DEFAULT_STYLESHEET
    text = _read_source(style_path)
    try:
        return parse_stylesheet(text)
    except StylesheetError as err:
        raise _Exit(1, f"psl: bad stylesheet {style_path}: {err}") from None


def _print_diagnostics(diagnostics: list[Diagnostic], path: str, as_json: bool) -> None:
    ordered = sorted(diagnostics, key=lambda d: (d.span.start, d.span.end, d.code))
    for d in ordered:
        if as_json:
            line = json.dumps({"psl_schema": SCHEMA_VERSION, **d.to_dict()})
        else:
            line = d.render(path)
        print(line, file=sys.stderr)


def _load_checked(args: argparse.Namespace) -> tuple[Storyboard, Stylesheet]:
    """Parse and validate ``args.file``; print problems, raise on errors."""
    style = _load_style(args)
    source = _read_source(args.file)
    sb, diagnostics = parse_storyboard(source)
    if sb is not None:
        diagnostics = diagnostics + validate(sb, style)
    _print_diagnostics(diagnostics, args.file, getattr(args, "json", False))
    if sb is None or has_errors(diagnostics):
        raise _Exit(1, "")
    return sb, style


def _load_compiled(args: argparse.Namespace) -> CompiledStoryboard:
    """Parse and compile ``args.file``, validating once; print problems,
    raise on errors."""
    style = _load_style(args)
    source = _read_source(args.file)
    sb, diagnostics = parse_storyboard(source)
    compiled = None
    if sb is not None:
        try:
            compiled = compile_storyboard(sb, style)
            diagnostics = diagnostics + list(compiled.diagnostics)
        except CompileError as err:
            diagnostics = diagnostics + list(err.diagnostics)
    _print_diagnostics(diagnostics, args.file, False)
    if compiled is None:
        raise _Exit(1, "")
    return compiled


def cmd_check(args: argparse.Namespace) -> int:
    _load_checked(args)
    return 0


def cmd_fmt(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    sb, diagnostics = parse_storyboard(source)
    if sb is None:
        _print_diagnostics(diagnostics, args.file, False)
        return 1
    text = format_storyboard(sb) + "\n"
    if args.write:
        try:
            Path(args.file).write_text(text, encoding="utf-8")
        except OSError as err:
            raise _Exit(2, f"psl: cannot write {args.file}: {err.strerror or err}") from None
    else:
        sys.stdout.write(text)
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    compiled = _load_compiled(args)
    print(json.dumps(net_to_dict(compiled), indent=2))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    compiled = _load_compiled(args)
    print(json.dumps(timeline_to_dict(timeline(compiled)), indent=2))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    frames = render_compiled(_load_compiled(args))
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for frame in frames:
            (out / frame.filename).write_text(frame.svg, encoding="utf-8")
    except OSError as err:
        raise _Exit(2, f"psl: cannot write to {args.out}: {err.strerror or err}") from None
    for frame in frames:
        print(out / frame.filename)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    sb, _ = _load_checked(args)
    categories = {category.value: 0 for category in ShotCategory}
    for shot in sb.shots:
        categories[classify_shot(shot).value] += 1
    sizes = {size.name: 0 for size in Size}
    for comp in storyboard_compositions(sb):
        for plane in comp.planes:
            sizes[plane.size.name] += 1
    verbs = {verb: 0 for verb in EVENT_VERBS}
    total_events = 0
    for shot in sb.shots:
        for e in shot.events:
            verbs[e.verb] += 1
            total_events += 1
    stats = {
        "psl_schema": SCHEMA_VERSION,
        "shot_count": len(sb.shots),
        **categories,
        "sizes": sizes,
        "verbs": verbs,
        "mean_events_per_shot": str(Fraction(total_events, len(sb.shots))),
    }
    print(json.dumps(stats, indent=2))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise _Exit(2, "psl: --count must be at least 1")
    failures = 0
    for i in range(args.count):
        text = generate_sentence(args.seed + i)
        sb, _ = parse_storyboard(text)
        if sb is None or format_storyboard(sb) != text:
            failures += 1
            print(text)
    print(f"{args.count} sentences, {args.count - failures} ok, {failures} failed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psl",
        description="Parse, check, format, compile, simulate, and sketch prose storyboards.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, func, help_text: str, *, file: bool = True):
        p = sub.add_parser(name, help=help_text)
        if file:
            p.add_argument("file", metavar="FILE", help="storyboard source file")
        p.set_defaults(func=func)
        return p

    check = command("check", cmd_check, "parse and validate; diagnostics on stderr")
    check.add_argument("--json", action="store_true", help="diagnostics as JSON lines")
    check.add_argument("--style", metavar="PATH", help="stylesheet overlay file")

    fmt = command("fmt", cmd_fmt, "print (or rewrite) the canonical form")
    fmt.add_argument("--write", action="store_true", help="rewrite FILE in place")

    for name, func, help_text in (
        ("compile", cmd_compile, "emit the timed Petri net as JSON"),
        ("simulate", cmd_simulate, "emit the simulated timeline as JSON"),
        ("render", cmd_render, "write one SVG sketch per visible frame"),
    ):
        p = command(name, func, help_text)
        p.add_argument("--style", metavar="PATH", help="stylesheet overlay file")
        if name == "render":
            p.add_argument("--out", metavar="DIR", required=True, help="output directory")

    command("stats", cmd_stats, "shot and event histograms as JSON")

    fuzz = command("fuzz", cmd_fuzz, "roundtrip random sentences", file=False)
    fuzz.add_argument("--count", type=int, default=100, metavar="N", help="sentences to try")
    fuzz.add_argument("--seed", type=int, default=0, metavar="N", help="base RNG seed")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Exit as stop:
        if stop.message:
            print(stop.message, file=sys.stderr)
        return stop.code


if __name__ == "__main__":
    raise SystemExit(main())
