"""The ``psl`` command line tool.

Exit codes are uniform across subcommands: 0 on success, 1 when the
input is at fault (syntax, continuity, failed roundtrips), 2 when the
invocation is (unknown flags, unreadable files, unwritable paths).
Diagnostics go to standard error; artifacts (canonical text, JSON, file
listings) go to standard output.  Every command is a pure function of
its inputs, so repeated runs print identical bytes.  ``main`` may be
called many times in one process: it builds the argument parsers on its
first call and reuses them, leaves a command's arguments to its parser,
and reads its input files anew on every call, through the one reader
``psl.stylesheet.read_text``, parsing a stylesheet only when its text
differs from the last one parsed.  Every FILE is read, parsed and
reported through one loader.  Importing this module loads only the front
end every command runs (parser, validator, stylesheets, formatter); a
command imports the compiler, the JSON writers, the renderer or the
generator when it runs, so a ``check`` process never loads the net code.
``main`` pauses the cyclic garbage collector for the call and restores
the caller's setting on return: the pipeline's objects form no reference
cycles, so collections would find nothing to free.  argparse's help
formatter does, so ``main`` collects once after usage or help.
"""
from __future__ import annotations

import argparse
import functools
import gc
import sys
from fractions import Fraction
from pathlib import Path

from .analysis import ShotCategory, classify_shot, validate
from .ast import EVENT_VERBS, Size, storyboard_compositions
from .diagnostics import Diagnostic, has_errors, in_source_order
from .formatter import format_storyboard
from .parser import parse_storyboard
from .stylesheet import DEFAULT_STYLESHEET, Stylesheet, StylesheetError, parse_stylesheet, read_text


class _Exit(Exception):
    """``_Exit(code, message)`` aborts the command with that exit code and message."""


def _cannot(action: str, err: Exception) -> _Exit:
    """Exit 2 with the system's reason, or with the text of a ValueError (a NUL in the path)."""
    return _Exit(2, f"psl: cannot {action}: {getattr(err, 'strerror', None) or err}")


def _read_source(path: str) -> str:
    """``read_text(path)``, its errors as exits; ``fmt --write`` writes no byte-order mark."""
    try:
        return read_text(path)
    except UnicodeDecodeError as err:  # a ValueError, so caught first
        raise _Exit(2, f"psl: {path} is not valid UTF-8: {err}") from None
    except (OSError, ValueError) as err:
        raise _cannot(f"read {path}", err) from None


@functools.lru_cache(maxsize=1)
def _parse_style(text: str) -> Stylesheet:
    """The stylesheet ``text`` describes, parsed again only when the text
    differs from the last call's.  No command changes a ``Stylesheet``, so
    calls may share one, as they share ``DEFAULT_STYLESHEET``; a text that
    fails to parse raises and is not kept."""
    return parse_stylesheet(text)


def _load_style(args: argparse.Namespace) -> Stylesheet:
    style_path = getattr(args, "style", None)
    if style_path is None:
        return DEFAULT_STYLESHEET
    try:
        return _parse_style(_read_source(style_path))
    except StylesheetError as err:
        raise _Exit(1, f"psl: bad stylesheet {style_path}: {err}") from None


def _print_diagnostics(diagnostics: list[Diagnostic], path: str, as_json: bool) -> None:
    if as_json:
        import json
        from .jsonio import SCHEMA_VERSION
    for d in in_source_order(diagnostics):
        print(json.dumps({"psl_schema": SCHEMA_VERSION, **d.to_dict()}) if as_json
              else d.render(path), file=sys.stderr)


def _load(args: argparse.Namespace, stage: str = "validate"):
    """``args.file`` parsed (``stage`` "parse"), validated ("validate") or
    compiled, which validates once ("compile"); print problems, raise on
    errors."""
    style = _load_style(args)
    result, diagnostics = parse_storyboard(_read_source(args.file))
    if result is not None and stage == "validate":
        diagnostics = diagnostics + validate(result, style)
    elif result is not None and stage == "compile":
        from .compiler import CompileError, compile_storyboard
        try:
            result = compile_storyboard(result, style)
            diagnostics = diagnostics + list(result.diagnostics)
        except CompileError as err:
            result = None
            diagnostics = diagnostics + list(err.diagnostics)
    _print_diagnostics(diagnostics, args.file, getattr(args, "json", False))
    if result is None or has_errors(diagnostics):
        raise _Exit(1, "")
    return result


def cmd_check(args: argparse.Namespace) -> int:
    _load(args)
    return 0


def cmd_fmt(args: argparse.Namespace) -> int:
    text = format_storyboard(_load(args, "parse")) + "\n"
    if args.write:
        try:
            with open(args.file, "w", encoding="utf-8") as file:
                file.write(text)
        except OSError as err:
            raise _cannot(f"write {args.file}", err) from None
    else:
        sys.stdout.write(text)
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    from .jsonio import net_json
    print(net_json(_load(args, "compile")))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .compiler import timeline
    from .jsonio import timeline_json
    print(timeline_json(timeline(_load(args, "compile"))))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from .render import render_compiled
    frames = render_compiled(_load(args, "compile"))
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for frame in frames:
            (out / frame.filename).write_text(frame.svg, encoding="utf-8")
    except (OSError, ValueError) as err:
        raise _cannot(f"write to {args.out}", err) from None
    for frame in frames:
        print(out / frame.filename)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from .jsonio import stats_json
    sb = _load(args)
    categories = {category.value: 0 for category in ShotCategory}
    verbs = {verb: 0 for verb in EVENT_VERBS}
    for shot in sb.shots:
        categories[classify_shot(shot).value] += 1
        for e in shot.events:
            verbs[e.verb] += 1
    sizes = {size.name: 0 for size in Size}
    for comp in storyboard_compositions(sb):
        for plane in comp.planes:
            sizes[plane.size.name] += 1
    mean = Fraction(sum(verbs.values()), len(sb.shots))
    print(stats_json(len(sb.shots), categories, sizes, verbs, mean))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .generator import generate_sentence
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


_COMMANDS: dict[str, argparse.ArgumentParser] = {}  # each command's parser, from build_parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``psl`` parser, built on the first call; every later call
    returns the same object, so callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="psl",
        description="Parse, check, format, compile, simulate, and sketch prose storyboards.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, func, help_text: str, *, file: bool = True):
        p = _COMMANDS[name] = sub.add_parser(name, help=help_text)
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
        ("stats", cmd_stats, "shot and event histograms as JSON"),
    ):
        p = command(name, func, help_text)
        p.add_argument("--style", metavar="PATH", help="stylesheet overlay file")
        if name == "render":
            p.add_argument("--out", metavar="DIR", required=True, help="output directory")

    fuzz = command("fuzz", cmd_fuzz, "roundtrip random sentences", file=False)
    fuzz.add_argument("--count", type=int, default=100, metavar="N", help="sentences to try")
    fuzz.add_argument("--seed", type=int, default=0, metavar="N", help="base RNG seed")

    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` less its ``command`` field, in one
    argparse pass when ``argv`` starts with a command whose parser takes the rest."""
    parser = build_parser()
    if argv and argv[0] in _COMMANDS:
        args, rest = _COMMANDS[argv[0]].parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            args = _parse_args(sys.argv[1:] if argv is None else argv)
        except SystemExit:  # after usage or help: free argparse's formatter cycles
            gc.collect()
            raise
        try:
            return args.func(args)
        except _Exit as stop:
            code, message = stop.args
            if message:
                print(message, file=sys.stderr)
            return code
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
