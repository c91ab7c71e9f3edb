"""The ``psl`` command line tool.

Exit codes are uniform across subcommands: 0 on success, 1 when the
input is at fault (syntax, continuity, failed roundtrips), 2 when the
invocation is (unknown flags, unreadable files, unwritable paths).
Diagnostics go to standard error; artifacts (canonical text, JSON, file
listings) go to standard output.  Every command is a pure function of
its inputs, so repeated runs print identical bytes.  ``main`` may be
called many times in one process.  It reads a plain command line (a FILE
command, its options spelt exactly, once each, and one FILE) straight from
one table of each command's options, and imports and builds argparse from
that table only for help, abbreviations, ``=`` forms, ``--``, ``fuzz`` and
errors, once per process.  It reads its input files anew on every call,
through the one reader ``psl.stylesheet.read_text``, parsing a stylesheet
only when its text differs from the last one parsed, and writes every file
through the one writer ``_write``; ``render`` opens its output directory
once, writes each frame by name in it, then prints the whole listing in
one write.  Every FILE is read, parsed and reported through one loader.
Importing this module loads only the front end every command runs (parser,
validator, stylesheets, formatter); a command imports the compiler, the
JSON writers, the renderer or the generator when it runs, so a ``check``
process never loads the net code, and a plain line never loads argparse.
``main`` pauses the cyclic garbage collector for the call and restores
the caller's setting on return: the pipeline's objects form no reference
cycles, so collections would find nothing to free.  argparse's help
formatter does, so ``main`` collects once after usage or help.
"""
from __future__ import annotations

import functools
import gc
import os
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

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


def _write(path: str, data: bytes, dir_fd: int | None = None) -> None:
    """Write ``data`` to ``path``, a name in the directory ``dir_fd`` if given: a new file
    gets mode 0o666 less the umask, an existing one is truncated.  OSError, or ValueError
    for a NUL in the path, if it cannot be written."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666, dir_fd=dir_fd)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


@functools.lru_cache(maxsize=1)
def _parse_style(text: str) -> Stylesheet:
    """The stylesheet ``text`` describes, parsed again only when the text
    differs from the last call's.  No command changes a ``Stylesheet``, so
    calls may share one, as they share ``DEFAULT_STYLESHEET``; a text that
    fails to parse raises and is not kept."""
    return parse_stylesheet(text)


def _load_style(args: SimpleNamespace) -> Stylesheet:
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


def _load(args: SimpleNamespace, stage: str = "validate"):
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


def cmd_check(args: SimpleNamespace) -> int:
    _load(args)
    return 0


def cmd_fmt(args: SimpleNamespace) -> int:
    text = format_storyboard(_load(args, "parse")) + "\n"
    if args.write:
        try:
            _write(args.file, text.encode("utf-8"))
        except (OSError, ValueError) as err:
            raise _cannot(f"write {args.file}", err) from None
    else:
        sys.stdout.write(text)
    return 0


def cmd_compile(args: SimpleNamespace) -> int:
    from .jsonio import net_json
    print(net_json(_load(args, "compile")))
    return 0


def cmd_simulate(args: SimpleNamespace) -> int:
    from .compiler import timeline
    from .jsonio import timeline_json
    print(timeline_json(timeline(_load(args, "compile"))))
    return 0


def cmd_render(args: SimpleNamespace) -> int:
    from .render import render_compiled
    frames = render_compiled(_load(args, "compile"))
    try:  # the path as given: an empty one names no directory
        os.makedirs(args.out, exist_ok=True)
        # O_PATH asks for no read permission on the directory, as writing into it by name did not.
        dir_fd = os.open(args.out, getattr(os, "O_PATH", os.O_RDONLY) | os.O_DIRECTORY)
        try:
            for frame in frames:
                _write(frame.filename, frame.svg.encode("utf-8"), dir_fd)
        finally:
            os.close(dir_fd)
    except (OSError, ValueError) as err:
        raise _cannot(f"write to {args.out}", err) from None
    head = str(Path(args.out) / "_")[:-1]  # what pathlib puts before a joined name: "" for "."
    sys.stdout.write("".join([f"{head}{frame.filename}\n" for frame in frames]))
    return 0


def cmd_stats(args: SimpleNamespace) -> int:
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


def cmd_fuzz(args: SimpleNamespace) -> int:
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


#: The ``--style`` option, which every FILE command but ``fmt`` takes.
_STYLE = ("PATH", "stylesheet overlay file", False)
#: Every command that reads a FILE: its function, its help, and each
#: option's spelling with its metavar (None for a flag), help and whether
#: it is required.  ``build_parser`` and ``_parse_args`` both read it.
_FILE_COMMANDS = {
    "check": (cmd_check, "parse and validate; diagnostics on stderr",
              {"--json": (None, "diagnostics as JSON lines", False), "--style": _STYLE}),
    "fmt": (cmd_fmt, "print (or rewrite) the canonical form",
            {"--write": (None, "rewrite FILE in place", False)}),
    "compile": (cmd_compile, "emit the timed Petri net as JSON", {"--style": _STYLE}),
    "simulate": (cmd_simulate, "emit the simulated timeline as JSON", {"--style": _STYLE}),
    "render": (cmd_render, "write one SVG sketch per visible frame",
               {"--style": _STYLE, "--out": ("DIR", "output directory", True)}),
    "stats": (cmd_stats, "shot and event histograms as JSON", {"--style": _STYLE}),
}


@functools.cache
def build_parser():
    """The ``psl`` argparse parser, built on the first call; every later
    call returns the same object, so callers must not change it."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="psl",
        description="Parse, check, format, compile, simulate, and sketch prose storyboards.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (func, help_text, options) in _FILE_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", metavar="FILE", help="storyboard source file")
        for spelling, (metavar, option_help, required) in options.items():
            kind = {"action": "store_true"} if metavar is None else {"metavar": metavar}
            p.add_argument(spelling, **kind, required=required, help=option_help)
        p.set_defaults(func=func)
    fuzz = sub.add_parser("fuzz", help="roundtrip random sentences")
    fuzz.add_argument("--count", type=int, default=100, metavar="N", help="sentences to try")
    fuzz.add_argument("--seed", type=int, default=0, metavar="N", help="base RNG seed")
    fuzz.set_defaults(func=cmd_fuzz)
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """What the full parser reads from ``argv``, a FILE command's line, when
    the line is plain: each option spelt exactly and given once, a value not
    starting with "-" after each option that takes one, every required
    option, and one FILE; else None."""
    func, _, options = _FILE_COMMANDS[argv[0]]
    given, file = {}, None
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-":
            if file is not None:
                return None
            file = word
        elif word in given or word not in options:
            return None
        elif options[word][0] is None:
            given[word] = True
        else:
            value = given[word] = next(words, "-")
            if value[:1] == "-":
                return None
    fields = {"command": argv[0], "file": file, "func": func}
    for spelling, (metavar, _, required) in options.items():
        if required and spelling not in given:
            return None
        fields[spelling[2:]] = given.get(spelling, None if metavar else False)
    return None if file is None else SimpleNamespace(**fields)


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """``build_parser().parse_args(argv)``, read from ``_FILE_COMMANDS`` alone
    when the line is plain; help, abbreviations, ``=`` forms, ``--``, ``fuzz``
    and every error go to argparse."""
    args = _plain_args(argv) if argv and argv[0] in _FILE_COMMANDS else None
    return args or build_parser().parse_args(argv, namespace=SimpleNamespace())


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
