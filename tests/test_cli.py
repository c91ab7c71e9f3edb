"""The command line: every operation, every exit code."""
from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import io
import json
import os
import random
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psl
from conftest import BROKEN_DIR, CORPUS_DIR, broken_paths, corpus_paths, fresh_stdout, parse_ok
from psl import analysis, cli, compiler
from psl.cli import main
from psl.diagnostics import in_source_order
from psl.render import render_compiled
from psl.stylesheet import DEFAULT_STYLESHEET, StylesheetError, load_stylesheet, parse_stylesheet

CROSS = CORPUS_DIR / "07_cross.psl"
OFFSCREEN = BROKEN_DIR / "b06_offscreen.psl"


#: Packages no command calls, which a stray import would load at start-up.
UNCALLED = ("xml", "http", "email", "ssl", "socket", "urllib.request")


def modules_after(code):
    """Every module loaded in a fresh interpreter that runs ``code``."""
    return set(fresh_stdout(f"{code}\nprint(*sorted(sys.modules))").split())


def test_importing_the_cli_loads_no_xml_http_or_socket_module():
    loaded = modules_after("import psl.cli") - modules_after("pass")
    assert "psl.parser" in loaded
    assert sorted(m for m in loaded if any(m == p or m.startswith(p + ".") for p in UNCALLED)) == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Records generate no code, so start-up needs neither module.  The
    modules are diffed within one interpreter, so a site hook that loaded
    them before the import cannot fail this test."""
    added = set(fresh_stdout(
        "before = set(sys.modules)\nimport psl.cli\nprint(*sorted(set(sys.modules) - before))"
    ).split())
    assert "psl.parser" in added
    assert sorted(added & {"dataclasses", "inspect"}) == []


def test_importing_the_cli_loads_no_stage_past_the_front_end():
    added = set(fresh_stdout(
        "before = set(sys.modules)\nimport psl.cli\nprint(*sorted(set(sys.modules) - before))"
    ).split())
    assert "psl.parser" in added
    later = {"psl.compiler", "psl.petri", "psl.jsonio", "psl.render", "psl.generator", "json"}
    assert sorted(added & later) == []


#: What ``import psl.cli`` loads of ``psl``: every command runs these.
FRONT_END = {"psl", "psl.analysis", "psl.ast", "psl.cli", "psl.diagnostics", "psl.formatter",
             "psl.lexer", "psl.parser", "psl.stylesheet"}
#: The modules each command loads beyond the front end.
COMMAND_MODULES = {
    "check": (),
    "check --json": ("jsonio",),
    "fmt": (),
    "stats": ("jsonio",),
    "compile": ("compiler", "petri", "jsonio"),
    "simulate": ("compiler", "petri", "jsonio"),
    "render": ("compiler", "petri", "render"),
    "fuzz": ("generator",),
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_only_the_modules_it_runs(command, tmp_path):
    """A fresh interpreter imports the CLI and runs one command; the modules
    are diffed within it, as above."""
    argv = command.split()
    argv += ["--count", "3"] if command == "fuzz" else [str(CROSS)]
    if command == "render":
        argv += ["--out", str(tmp_path)]
    added = set(fresh_stdout(
        "import contextlib, io\n"
        "before = set(sys.modules)\n"
        "from psl.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(*sorted(set(sys.modules) - before))"
    ).split())
    own = FRONT_END | {f"psl.{name}" for name in COMMAND_MODULES[command]}
    assert sorted(m for m in added if m.split(".")[0] == "psl") == sorted(own)
    assert sorted(m for m in added if any(m == p or m.startswith(p + ".") for p in UNCALLED)) == []
    assert sorted(added & {"dataclasses", "inspect"}) == []


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- check -------------------------------------------------------------

def test_check_clean_file(capsys):
    code, out, err = run(capsys, "check", str(CROSS))
    assert (code, out, err) == (0, "", "")


def test_check_reports_semantic_errors(capsys):
    code, out, err = run(capsys, "check", str(OFFSCREEN))
    assert code == 1 and out == ""
    assert err == f"{OFFSCREEN}:12: E101 Boris is not on screen\n"


def test_check_reports_warnings_but_passes(capsys, tmp_path):
    path = tmp_path / "warn.psl"
    path.write_text("MS on Anna and Boris, pan to CU on Anna.\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 0
    assert "W201" in err


def test_check_json_lines(capsys):
    code, out, err = run(capsys, "check", "--json", str(OFFSCREEN))
    assert code == 1 and out == ""
    record = json.loads(err.splitlines()[0])
    assert record["psl_schema"] == 1
    assert record["code"] == "E101"
    assert record["severity"] == "error"
    assert record["span"]["start"] == 12


def test_check_missing_file(capsys):
    code, out, err = run(capsys, "check", str(CORPUS_DIR / "nope.psl"))
    assert code == 2
    assert err.startswith("psl: cannot read")


BOM = "\ufeff".encode("utf-8")


def test_a_leading_byte_order_mark_is_skipped(capsys, tmp_path):
    path = tmp_path / "bom.psl"
    path.write_bytes(BOM + b"MS on Anna, Boris speaks.\n")
    code, out, err = run(capsys, "check", str(path))
    # offsets count from after the mark: "Boris" starts at byte 12 of the text
    assert (code, out, err) == (1, "", f"{path}:12: E101 Boris is not on screen\n")
    path.write_bytes(BOM + b"ms ON Anna.")
    for command in ("compile", "simulate", "stats"):
        assert run(capsys, command, str(path))[0] == 0, command
    code, out, err = run(capsys, "fmt", "--write", str(path))
    assert (code, out, err) == (0, "", "")
    assert path.read_bytes() == b"MS on Anna.\n"  # the canonical text drops the mark


def test_only_one_byte_order_mark_is_skipped(capsys, tmp_path):
    path = tmp_path / "two_boms.psl"
    path.write_bytes(BOM + BOM + b"MS on Anna.\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 1
    assert err == f"{path}:0: E010 unexpected character '\\ufeff'\n"


def test_a_stylesheet_may_start_with_a_byte_order_mark(capsys, tmp_path):
    sheet = tmp_path / "bom.sheet"
    sheet.write_bytes(BOM + b"duration.cross = 4\n")
    code, out, err = run(capsys, "simulate", "--style", str(sheet), str(CROSS))
    assert (code, err) == (0, "")
    assert json.loads(out)["entries"][0]["t1"] == "4"  # the default cross takes 2


def _read_by_open(path):
    """The reference reader: the text that ``open(path, "rb")`` on the path
    as given and the "utf-8-sig" codec give, or the error they stop with."""
    try:
        with open(path, "rb") as file:
            return file.read().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        return err


def _stop_line(path, err):
    """The ``psl:`` line that a read stopped by ``err`` ends in, with exit 2."""
    if isinstance(err, UnicodeDecodeError):
        return f"psl: {path} is not valid UTF-8: {err}\n"
    return f"psl: cannot read {path}: {err.strerror}\n"


BODY = b"<body>"
#: The bytes of each readable case, with BODY where the storyboard or the stylesheet goes.
READS = {
    "one mark": BOM + BODY,
    "two marks": BOM + BOM + BODY,
    "a mark, then a bad byte": BOM + b"\xff" + BODY,
    "a bad first byte": b"\xff" + BODY,
    "a bad later byte": BODY + b"\xc3.\n",
    "a truncated mark": b"\xef\xbb" + BODY,
    "the mark alone": BOM,
    "nothing": b"",
}
#: Paths beside or under the written file that name nothing readable.
UNREADABLE = {
    "a directory": "{dir}", "a missing file": "{dir}/missing", "under a file": "{file}/x",
    "the file and a slash": "{file}/", "the file and /.": "{file}/.", "an empty path": "",
}


@pytest.mark.parametrize("case", [*READS, *UNREADABLE])
def test_a_file_reads_as_it_did_through_pathlib(capsys, tmp_path, case):
    """Each case read as the storyboard, as ``--style`` with a valid sheet
    body, and through ``load_stylesheet``, against a reader built on
    ``open`` alone: the same text, or the same error.  The pathlib reader
    this once matched read ``FILE/`` and ``FILE/.`` as ``FILE``, and ""
    as "."; those paths now get the operating system's own answer."""
    paths = []
    for name, body in (("board.psl", b"MS on Anna.\n"), ("cross.sheet", b"duration.cross = 4\n")):
        file = tmp_path / name
        file.write_bytes(READS.get(case, BODY).replace(BODY, body))
        paths.append(UNREADABLE.get(case, "{file}").format(dir=tmp_path, file=file))
    board, sheet = paths

    text = _read_by_open(board)
    if isinstance(text, str):
        assert cli._read_source(board) == text
    else:
        assert run(capsys, "check", board) == (2, "", _stop_line(board, text))

    text = _read_by_open(sheet)
    styled = ("check", "--style", sheet, str(CROSS))
    if not isinstance(text, str):
        assert run(capsys, *styled) == (2, "", _stop_line(sheet, text))
        with pytest.raises((OSError, StylesheetError)) as exc:
            load_stylesheet(sheet)
        if isinstance(text, OSError):
            assert exc.value.strerror == text.strerror
        else:
            assert str(exc.value) == f"{sheet} is not valid UTF-8"
        return
    try:
        expected = parse_stylesheet(text)
    except StylesheetError as err:  # two marks: the second is text, and no key
        assert run(capsys, *styled) == (1, "", f"psl: bad stylesheet {sheet}: {err}\n")
        with pytest.raises(StylesheetError) as exc:
            load_stylesheet(sheet)
        assert str(exc.value) == str(err)
        return
    assert cli._load_style(argparse.Namespace(style=sheet)) == expected
    assert load_stylesheet(sheet) == expected


@pytest.mark.parametrize("argv", [
    ("check", "a\0b"), ("check", "--style", "a\0b", str(CROSS)), ("render", str(CROSS), "--out", "a\0b"),
], ids=["FILE", "--style", "--out"])
def test_a_nul_byte_in_a_path_is_an_invocation_error(capsys, argv):
    """``open`` and ``mkdir`` refuse such a path with a ValueError; a shell
    cannot pass one, but an in-process caller can."""
    action = "write to" if "--out" in argv else "read"
    assert run(capsys, *argv) == (2, "", f"psl: cannot {action} a\0b: embedded null byte\n")


@pytest.mark.parametrize(("newline", "found"), [
    ("\r\n", [("E101", b"Anna speaks"), ("E101", b"Dan speaks")]),
    # a lone CR is a blank, not a line break, so that '#' opens no comment
    ("\r", [("E010", b"#"), ("E002", b"Dan is")]),
], ids=["crlf", "lone-cr"])
def test_offsets_count_file_bytes_whatever_the_line_endings(capsys, tmp_path, newline, found):
    lines = ["MS on Boris.", "Cut to MS on Boris, Anna speaks.", "Cut to MS on Carla, Dan speaks.",
             "# Dan is off screen", ""]
    raw = newline.join(lines).encode("utf-8")
    path = tmp_path / "board.psl"
    path.write_bytes(raw)
    # what the library finds in the file's own characters
    sb, expected = psl.parse_storyboard(raw.decode("utf-8"))
    if sb is not None:
        expected = in_source_order(expected + analysis.validate(sb, DEFAULT_STYLESHEET))
    assert [(d.code, d.span.start) for d in expected] == [(code, raw.index(at)) for code, at in found]
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == [d.render(str(path)) for d in expected]
    code, out, err = run(capsys, "check", "--json", str(path))
    assert (code, out) == (1, "")
    assert [(r["code"], r["span"]["start"], r["span"]["end"]) for r in map(json.loads, err.splitlines())] == [
        (d.code, d.span.start, d.span.end) for d in expected
    ]


def test_check_sorts_by_offset(capsys, tmp_path):
    path = tmp_path / "two.psl"
    path.write_text("on Anna.\non Boris.\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 1
    offsets = [int(line.split(":")[1]) for line in err.splitlines()]
    assert offsets == sorted(offsets)


# --- fmt ----------------------------------------------------------------

def test_fmt_prints_canonical_text(capsys, tmp_path):
    path = tmp_path / "messy.psl"
    path.write_text("ms ON Anna,Anna speaks.\n", encoding="utf-8")
    code, out, err = run(capsys, "fmt", str(path))
    assert (code, err) == (0, "")
    assert out == "MS on Anna, Anna speaks.\n"
    assert path.read_text(encoding="utf-8") == "ms ON Anna,Anna speaks.\n"


def test_fmt_write_rewrites_the_file(capsys, tmp_path):
    path = tmp_path / "messy.psl"
    path.write_text("ms ON Anna.", encoding="utf-8")
    code, out, _ = run(capsys, "fmt", "--write", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8") == "MS on Anna.\n"


def test_fmt_write_leaves_broken_files_alone(capsys, tmp_path):
    path = tmp_path / "broken.psl"
    original = "MS on Anna\n"
    path.write_text(original, encoding="utf-8")
    code, out, err = run(capsys, "fmt", "--write", str(path))
    assert code == 1
    assert path.read_text(encoding="utf-8") == original
    assert "E002" in err


def test_fmt_write_that_cannot_write_is_an_invocation_error(capsys, monkeypatch, tmp_path):
    regular = tmp_path / "regular"
    regular.write_text("", encoding="utf-8")
    monkeypatch.setattr(cli, "_read_source", lambda path: "ms ON Anna.")  # a read that works
    code, out, err = run(capsys, "fmt", "--write", f"{regular}/board.psl")
    assert (code, out) == (2, "")
    assert err == f"psl: cannot write {regular}/board.psl: {os.strerror(errno.ENOTDIR)}\n"


def test_fmt_write_to_the_file_and_a_slash_leaves_the_file_alone(capsys, tmp_path):
    path = tmp_path / "messy.psl"
    path.write_bytes(b"ms ON Anna.")
    code, out, err = run(capsys, "fmt", "--write", f"{path}/")
    assert (code, out) == (2, "")
    assert err == f"psl: cannot read {path}/: {os.strerror(errno.ENOTDIR)}\n"
    assert path.read_bytes() == b"ms ON Anna."


def test_fmt_is_idempotent_over_the_corpus(capsys, tmp_path):
    for path in sorted(CORPUS_DIR.glob("*.psl")):
        code, once, _ = run(capsys, "fmt", str(path))
        assert code == 0, path.name
        assert once.endswith("\n")
        # formatting canonical text changes nothing
        formatted = tmp_path / path.name
        formatted.write_text(once, encoding="utf-8", newline="")
        code, twice, _ = run(capsys, "fmt", str(formatted))
        assert (code, twice) == (0, once), path.name


# --- compile and simulate --------------------------------------------------

def test_compile_emits_the_net(capsys):
    code, out, err = run(capsys, "compile", str(CROSS))
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["psl_schema"] == 1
    assert {p["id"] for p in data["places"]} >= {"camera", "ctrl:0"}
    assert len(data["transitions"]) == 2


def test_simulate_emits_the_timeline(capsys):
    code, out, err = run(capsys, "simulate", str(CROSS))
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["psl_schema"] == 1
    assert [e["t0"] for e in data["entries"]] == ["0", "2", "4"]
    assert data["entries"][-1]["t1"] == "5"


def test_simulate_rejects_broken_input(capsys):
    code, out, err = run(capsys, "simulate", str(OFFSCREEN))
    assert code == 1 and out == ""
    assert "E101" in err


@pytest.mark.parametrize("command", ["compile", "simulate", "render"])
def test_one_validating_fold_per_board(capsys, monkeypatch, tmp_path, command):
    # One shared validate-and-fold pass per board, one continuity step per event.
    counts = {"boards": 0, "events": 0}

    def counting(key, func):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)
        return wrapper

    fold = counting("boards", analysis.fold_storyboard)
    monkeypatch.setattr(analysis, "fold_storyboard", fold)
    monkeypatch.setattr(compiler, "fold_storyboard", fold)
    monkeypatch.setattr(analysis, "infer_target", counting("events", analysis.infer_target))
    path = CORPUS_DIR / "17_mixed.psl"
    events = sum(len(shot.events) for shot in parse_ok(path.read_text(encoding="utf-8")).shots)
    out_flag = ["--out", str(tmp_path)] if command == "render" else []
    code, _, err = run(capsys, command, str(path), *out_flag)
    assert (code, err) == (0, "")
    assert counts == {"boards": 1, "events": events}


# --- render -------------------------------------------------------------

def test_render_writes_frames(capsys, tmp_path):
    out_dir = tmp_path / "frames"
    code, out, err = run(capsys, "render", str(CROSS), "--out", str(out_dir))
    assert (code, err) == (0, "")
    listed = out.splitlines()
    on_disk = sorted(p.name for p in out_dir.glob("*.svg"))
    assert on_disk == ["shot01_frame01.svg", "shot01_frame02.svg", "shot01_frame03.svg"]
    assert [line.rsplit("/", 1)[-1] for line in listed] == on_disk
    svg = (out_dir / "shot01_frame01.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg")


def test_render_requires_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["render", str(CROSS)])
    assert exc.value.code == 2


def test_render_into_a_regular_file_is_an_invocation_error(capsys, tmp_path):
    regular = tmp_path / "frames"
    regular.write_text("kept\n", encoding="utf-8")
    code, out, err = run(capsys, "render", str(CROSS), "--out", str(regular))
    assert (code, out) == (2, "")
    assert err == f"psl: cannot write to {regular}: {os.strerror(errno.EEXIST)}\n"
    assert regular.read_text(encoding="utf-8") == "kept\n"


def test_render_respects_a_stylesheet(capsys, tmp_path):
    sheet = tmp_path / "slow.sheet"
    sheet.write_text("duration.cross = 4\n", encoding="utf-8")
    out_dir = tmp_path / "frames"
    code, out, _ = run(capsys, "render", str(CROSS), "--style", str(sheet), "--out", str(out_dir))
    assert code == 0


def cross_frames():
    """What ``render`` writes for ``CROSS``: each file's name and bytes."""
    compiled = compiler.compile_storyboard(parse_ok(CROSS.read_text(encoding="utf-8")))
    return {frame.filename: frame.svg.encode("utf-8") for frame in render_compiled(compiled)}


def test_render_replaces_a_longer_file_at_a_frame_name(capsys, tmp_path):
    expected = cross_frames()
    name = sorted(expected)[0]
    (tmp_path / name).write_bytes(b"x" * (len(expected[name]) + 1000))
    assert run(capsys, "render", str(CROSS), "--out", str(tmp_path))[0] == 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == expected


def test_render_writes_every_byte_when_each_write_is_short(capsys, monkeypatch, tmp_path):
    real_open, real_write = os.open, os.write
    opened, writes = [], []

    def recording_open(*args, **kwargs):
        fd = real_open(*args, **kwargs)
        opened.append(os.get_inheritable(fd))
        return fd

    def short_write(fd, data):
        writes.append(fd)
        return real_write(fd, bytes(data)[:7])

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "write", short_write)
    code = main(["render", str(CROSS), "--out", str(tmp_path)])
    monkeypatch.undo()
    assert code == 0
    expected = cross_frames()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == expected
    assert len(writes) == sum(-(-len(svg) // 7) for svg in expected.values())
    assert opened == [False] * (len(expected) + 1)  # the directory, then each frame


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002], ids=oct)
def test_render_files_get_the_mode_open_gives(capsys, tmp_path, umask):
    previous = os.umask(umask)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        assert run(capsys, "render", str(CROSS), "--out", str(tmp_path / "frames"))[0] == 0
    finally:
        os.umask(previous)
    mode = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    assert [stat.S_IMODE(p.stat().st_mode) for p in (tmp_path / "frames").iterdir()] == [mode] * 3


@pytest.mark.parametrize("spelling", [".", "d/", "./d", "d//e", "ABSOLUTE", "ABSOLUTE/"])
def test_render_lists_each_file_as_pathlib_joins_it(capsys, monkeypatch, tmp_path, spelling):
    monkeypatch.chdir(tmp_path)
    out = spelling.replace("ABSOLUTE", str(tmp_path / "abs"))
    code, listing, err = run(capsys, "render", str(CROSS), "--out", out)
    assert (code, err) == (0, "")
    names = sorted(cross_frames())
    assert listing == "".join(f"{Path(out) / name}\n" for name in names)
    assert all(Path(line).read_bytes().startswith(b"<svg") for line in listing.splitlines())


def test_render_to_an_empty_path_is_an_invocation_error(capsys, monkeypatch, tmp_path):
    # An empty --out names no directory, as an empty FILE names no file:
    # the path is used as given, not read as pathlib's ".".
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "render", str(CROSS), "--out", "")
    assert (code, out) == (2, "")
    assert err == f"psl: cannot write to : {os.strerror(errno.ENOENT)}\n"
    assert list(tmp_path.iterdir()) == []


def test_render_without_o_path_opens_the_directory_read_only(capsys, monkeypatch, tmp_path):
    # Where os has no O_PATH, --out is opened with O_RDONLY | O_DIRECTORY
    # and the sketches and the listing come out the same.
    def rendered(out):
        code, listing, err = run(capsys, "render", str(CROSS), "--out", str(out))
        assert (code, err) == (0, "")
        return listing.replace(str(out), "OUT"), {p.name: p.read_bytes() for p in out.iterdir()}

    with_o_path = rendered(tmp_path / "a")
    assert with_o_path[1] == cross_frames()
    flags = []
    real_open = os.open

    def spying_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.delattr(os, "O_PATH", raising=False)
    monkeypatch.setattr(os, "open", spying_open)
    assert rendered(tmp_path / "b") == with_o_path
    assert [flag for flag in flags if flag & os.O_DIRECTORY] == [os.O_RDONLY | os.O_DIRECTORY]


def test_render_onto_a_directory_at_a_frame_name_is_an_invocation_error(capsys, tmp_path):
    names = sorted(cross_frames())
    (tmp_path / names[1]).mkdir()
    code, out, err = run(capsys, "render", str(CROSS), "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"psl: cannot write to {tmp_path}: {os.strerror(errno.EISDIR)}\n"
    assert (tmp_path / names[0]).is_file() and (tmp_path / names[1]).is_dir()


def test_fmt_write_replaces_a_longer_file(capsys, tmp_path):
    path = tmp_path / "messy.psl"
    path.write_text("ms    ON     Anna.   \n\n\n", encoding="utf-8")
    assert run(capsys, "fmt", "--write", str(path)) == (0, "", "")
    assert path.read_bytes() == b"MS on Anna.\n"


def test_non_utf8_stylesheet_is_a_read_error(capsys, tmp_path):
    sheet = tmp_path / "latin1.sheet"
    sheet.write_bytes(b"size = \xff\n")
    code, out, err = run(capsys, "check", "--style", str(sheet), str(CROSS))
    assert (code, out) == (2, "")
    assert err.startswith(f"psl: {sheet} is not valid UTF-8")


def test_bad_stylesheet_is_an_input_error(capsys, tmp_path):
    sheet = tmp_path / "bad.sheet"
    sheet.write_text("duration.speak = banana\n", encoding="utf-8")
    first = run(capsys, "check", "--style", str(sheet), str(CROSS))
    code, out, err = first
    assert code == 1
    assert "bad number" in err
    assert run(capsys, "check", "--style", str(sheet), str(CROSS)) == first  # nothing kept


def test_a_stylesheet_is_read_every_call_and_parsed_once_per_text(capsys, monkeypatch, tmp_path):
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_stylesheet(text)

    monkeypatch.setattr(cli, "parse_stylesheet", counting)
    sheet = tmp_path / "timing.sheet"
    crosses = []
    for value in ("4", "4", "6"):  # the text names its own path, so no earlier test shares it
        sheet.write_text(f"# {sheet}\nduration.cross = {value}\n", encoding="utf-8")
        code, out, err = run(capsys, "compile", "--style", str(sheet), str(CROSS))
        assert (code, err) == (0, "")
        transitions = json.loads(out)["transitions"]
        crosses.append({t["duration"] for t in transitions if t["verb"] == "cross"})
    assert crosses == [{"4"}, {"4"}, {"6"}]
    assert len(parsed) == 2


@pytest.mark.parametrize(
    "line, command, message",
    [
        ("size = MS", "check", "line 1: unknown key 'size'"),
        ("duration.speak = 1e5000", "compile", "line 1: bad number '1e5000'"),
        ("duration.speak = 1e5000", "simulate", "line 1: bad number '1e5000'"),
        ("positions.1 = 1e-5000", "render", "line 1: bad number '1e-5000'"),
    ],
)
def test_stylesheet_errors_exit_1_without_a_traceback(capsys, tmp_path, line, command, message):
    sheet = tmp_path / "bad.sheet"
    sheet.write_text(line + "\n", encoding="utf-8")
    extra = ["--out", str(tmp_path / "frames")] if command == "render" else []
    code, out, err = run(capsys, command, "--style", str(sheet), *extra, str(CROSS))
    assert (code, out) == (1, "")
    assert err == f"psl: bad stylesheet {sheet}: {message}\n"


@pytest.mark.parametrize("command", ["check", "fmt"])
def test_over_long_fraction_is_a_diagnostic(capsys, tmp_path, command):
    board = tmp_path / "big.psl"
    board.write_text(f"MS on Anna at 1/{'9' * 5000}.\n", encoding="utf-8")
    code, out, err = run(capsys, command, str(board))
    assert (code, out) == (1, "")
    assert f"{board}:14: E003 fraction has more than" in err


# --- stats ---------------------------------------------------------------

def test_stats_counts_categories_and_verbs(capsys):
    code, out, err = run(capsys, "stats", str(CROSS))
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["psl_schema"] == 1
    assert data["shot_count"] == 1
    assert (data["Simple"], data["Complex"], data["Composite"]) == (1, 0, 0)
    assert data["sizes"]["MS"] == 1 and data["sizes"]["BCU"] == 0
    assert data["verbs"]["cross"] == 2 and data["verbs"]["pan"] == 0
    assert data["mean_events_per_shot"] == "2"


def test_stats_mean_is_an_exact_fraction(capsys, tmp_path):
    path = tmp_path / "three.psl"
    path.write_text(
        "MS on Anna, Anna speaks.\nCut to CU on Anna.\nCut to MS on Anna.\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "stats", str(path))
    assert code == 0
    assert json.loads(out)["mean_events_per_shot"] == "1/3"


def test_stats_validates_under_the_given_stylesheet(capsys, tmp_path):
    # E108 depends on the sheet's position rows: the built-in row for two
    # subjects, 1/3 and 2/3, clashes with Anna's 2/3; this sheet's does not.
    path = tmp_path / "clash.psl"
    path.write_text("MS on Anna at 2/3 and Boris.\n", encoding="utf-8")
    sheet = tmp_path / "wide.style"
    sheet.write_text("positions.2 = 1/4, 3/4\n", encoding="utf-8")
    code, out, err = run(capsys, "stats", str(path))
    assert (code, out) == (1, "")
    assert "E108" in err
    for command in ("check", "compile", "stats"):
        code, out, err = run(capsys, command, str(path), "--style", str(sheet))
        assert (code, err) == (0, ""), command
    assert json.loads(out)["sizes"]["MS"] == 1


# --- fuzz -----------------------------------------------------------------

def test_fuzz_reports_a_summary(capsys):
    code, out, err = run(capsys, "fuzz", "--count", "5", "--seed", "3")
    assert (code, err) == (0, "")
    assert out == "5 sentences, 5 ok, 0 failed\n"


def test_fuzz_prints_each_failed_roundtrip_and_exits_1(capsys, monkeypatch):
    failing = psl.generate_sentence(4)
    format_storyboard = cli.format_storyboard

    def one_wrong(sb):
        text = format_storyboard(sb)
        return "" if text == failing else text

    monkeypatch.setattr(cli, "format_storyboard", one_wrong)
    code, out, err = run(capsys, "fuzz", "--count", "3", "--seed", "3")
    assert (code, err) == (1, "")
    assert out == f"{failing}\n3 sentences, 2 ok, 1 failed\n"


def test_fuzz_rejects_non_positive_counts(capsys):
    code, out, err = run(capsys, "fuzz", "--count", "0")
    assert code == 2
    assert "at least 1" in err


# --- argument handling -------------------------------------------------

def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_no_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _argvs(file, sheet, out):
    """Command lines that parse, and ones that end in usage, help or an error."""
    commands = ("check", "fmt", "compile", "simulate", "render", "stats", "fuzz")
    return [
        ["check", file], ["check", "--json", file], ["check", file, "--style", sheet],
        ["check", f"--style={sheet}", file], ["check", "--sty", sheet, file], ["check", "--js", file],
        ["fmt", file], ["fmt", "--write", file], ["fmt", file, "--write"],
        ["compile", file], ["compile", "--style", sheet, file],
        ["simulate", file], ["simulate", file, f"--style={sheet}"],
        ["render", file, "--out", out], ["render", f"--out={out}", "--style", sheet, file],
        ["render", "--o", out, file], ["render", file], ["render", "--out", out],
        ["stats", file], ["stats", "--style", sheet, file],
        ["fuzz"], ["fuzz", "--count", "5", "--seed", "3"], ["fuzz", "--seed=-1"], ["fuzz", "--c", "2"],
        ["fuzz", "--count", "x"], ["fuzz", "--count", "-5"], ["fuzz", "--count"], ["fuzz", file],
        # "--" ends the options, before or after the command
        ["check", "--", file], ["check", "--json", "--", file], ["check", "--", "--json"],
        ["fmt", "--", "-x"], ["--", "check", file], ["check", file, "--"], ["fuzz", "--"],
        # help at top level and per command
        ["-h"], ["--help"], ["--he"], ["check", file, "--help"], ["check", "-h", "--bogus"],
        *([command, "-h"] for command in commands), *([command, "--help"] for command in commands),
        # unknown options, a second positional, a missing FILE or value
        ["check", "--bogus", file], ["check", file, "--bogus"], ["check", "-x", file],
        ["fuzz", "--bogus"], ["fmt", "--write=1", file], ["check", file, file], ["fmt", file, "more"],
        ["check"], ["check", "--json"], ["check", "--style"], ["check", file, "--style"],
        ["stats", "--style", sheet], ["check", "--bogus"],
        # no command, an unknown one, a misspelt one, a top-level option
        [], ["frobnicate"], ["frobnicate", file], ["CHECK", file], ["chec", file], ["-x"],
        ["--bogus", "check", file],
        # the edges of a plain line: a repeated option, a value that starts
        # with "-", an empty FILE, options after FILE, another command's
        # option, a FILE that names a command, render without --style (also above)
        ["check", "--json", "--json", file], ["check", "--style", sheet, "--style", sheet, file],
        ["check", "--style", "-1", file], ["check", "--style", "-", file], ["check", "-1"],
        ["check", ""], ["fmt", "--write", ""], ["check", "--style", "", file],
        ["check", file, "--json"], ["check", file, "--json", "--style", sheet],
        ["fmt", "--json", file], ["check", "--out", out, file], ["check", "--write", file],
        ["check", "check"], ["fmt", "render"], ["render", "stats", "--out", out],
        ["render", "--out", out, file], ["render", "--out", out, "--out", out, file],
    ]


def _parsed(parse, argv):
    """The fields ``parse`` sets, or how it stopped.  Output is captured by
    redirection, not ``capsys``, which a property test cannot reset
    between its examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as stop:
            return ("SystemExit", stop.code, out.getvalue(), err.getvalue())
    assert (out.getvalue(), err.getvalue()) == ("", "")
    return vars(args)


def test_main_parses_every_command_line_as_the_full_parser_does(tmp_path):
    sheet = tmp_path / "slow.sheet"
    sheet.write_text("duration.cross = 4\n", encoding="utf-8")
    for argv in _argvs(str(CROSS), str(sheet), str(tmp_path / "frames")):
        full = _parsed(cli.build_parser().parse_args, list(argv))
        # main parses through _parse_args; only a line it rejects is run whole
        assert _parsed(cli._parse_args, list(argv)) == full, argv
        if isinstance(full, tuple):
            assert _parsed(main, list(argv)) == full, argv


#: Words a command line is drawn from: commands, exact spellings, words
#: that are paths or values, and abbreviated and "=" spellings, the option
#: terminator, a lone dash, help, an unknown option, a negative number and
#: an empty word.
_NAMES = ("check", "fmt", "compile", "simulate", "render", "stats", "fuzz")
_SPELT = ("--json", "--style", "--write", "--out", "--count", "--seed")
_PLAIN = ("a.psl", "frames", "b/c.psl", "3", "x")
_ODD = ("--js", "--sty", "--wr", "--o", "--c", "--s", "--help", "--style=a.sheet", "--out=frames",
        "--json=1", "--count=3", "--", "-", "-h", "-x", "-1", "")
#: Each command's options with their values, as a plain line has them.
_OWN = {"check": (("--json",), ("--style", "a.sheet")), "fmt": (("--write",),),
        "compile": (("--style", "a.sheet"),), "simulate": (("--style", "a.sheet"),),
        "render": (("--style", "a.sheet"), ("--out", "frames")), "stats": (("--style", "a.sheet"),),
        "fuzz": (("--count", "3"), ("--seed", "1"))}
#: Pieces that make a line not plain: a value that starts with "-", a
#: missing value, another command's option, a second FILE.
_BREAKERS = (("--style", "-1"), ("--out",), ("--write",), ("a.psl",))


def _lines(name):
    """Lines of command ``name``: some of its own options, at most one piece
    that makes the line not plain, and one FILE, in any order."""
    parts = st.tuples(st.lists(st.sampled_from(_OWN[name]), unique=True),
                      st.sampled_from(((),) * 4 + tuple((piece,) for piece in _BREAKERS)),
                      st.sampled_from(("a.psl", "", "check", "b/c.psl", "-1")))
    return parts.flatmap(lambda p: st.permutations([*p[0], *p[1], (p[2],)])).map(
        lambda pieces: [name, *(word for piece in pieces for word in piece)])


#: Any 0-6 words, or a line of one command.
_ARGVS = st.one_of(st.lists(st.sampled_from(_NAMES + _SPELT + _PLAIN + _ODD), max_size=6),
                   st.sampled_from(_NAMES).flatmap(_lines))


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(_ARGVS)
def test_the_plain_reader_agrees_with_argparse_on_any_command_line(argv):
    assert _parsed(cli._parse_args, list(argv)) == _parsed(cli.build_parser().parse_args, list(argv))


def test_a_command_line_that_starts_with_a_command_is_parsed_once(capsys, monkeypatch, tmp_path):
    """A plain line runs no argparse parser; any other runs the full parser once."""
    parsers = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recording(self, *args, **kwargs):
        parsers.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    assert run(capsys, "check", "--style", str(CROSS), str(CROSS))[0] == 1
    assert run(capsys, "render", str(CROSS), "--out", str(tmp_path))[0] == 0
    assert run(capsys, "fmt", "--write", str(tmp_path / "missing.psl"))[0] == 2
    assert parsers == []
    assert run(capsys, "check", f"--style={CROSS}", str(CROSS))[0] == 1
    assert run(capsys, "fuzz", "--count", "2") == (0, "2 sentences, 2 ok, 0 failed\n", "")
    assert parsers == ["psl", "psl check", "psl", "psl fuzz"]
    with pytest.raises(SystemExit):
        main(["check", str(CROSS), "--bogus"])
    assert parsers[4:] == ["psl", "psl check"]
    capsys.readouterr()


def test_the_parser_is_built_on_the_first_call_only():
    # Counts parsers created in a fresh interpreter: none at import or for
    # plain lines (so neither pays for them), some on the first line that
    # needs argparse, none after.
    script = (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    made.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import psl.cli\n"
        "counts = [len(made)]\n"
        f"for argv in (['check', {str(CROSS)!r}], ['check', '--json', {str(CROSS)!r}],\n"
        f"             ['check', '--js', {str(CROSS)!r}], ['check', '--', {str(CROSS)!r}],\n"
        f"             ['check', {str(CROSS)!r}]):\n"
        "    assert psl.cli.main(argv) == 0\n"
        "    counts.append(len(made))\n"
        "print(*counts)\n"
    )
    counts = list(map(int, fresh_stdout(script).split()))
    assert counts[:3] == [0, 0, 0]
    assert counts[3] > 0
    assert counts[4:] == [counts[3]] * 2


def test_a_plain_command_line_loads_neither_argparse_nor_gettext(tmp_path):
    """Every FILE command, styled where it takes a stylesheet, in one fresh
    interpreter; the modules are diffed within it, as above."""
    sheet = tmp_path / "slow.sheet"
    sheet.write_text("duration.cross = 4\n", encoding="utf-8")
    file, style, out = str(CROSS), str(sheet), str(tmp_path / "frames")
    lines = [["check", "--json", "--style", style, file], ["fmt", file],
             ["compile", file, "--style", style], ["simulate", file],
             ["render", "--style", style, file, "--out", out], ["stats", "--style", style, file]]
    added = set(fresh_stdout(
        "import contextlib, io\n"
        "before = set(sys.modules)\n"
        "from psl.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert [main(argv) for argv in {lines!r}] == [0] * 6\n"
        "print(*sorted(set(sys.modules) - before))"
    ).split())
    assert "psl.render" in added
    assert sorted(added & {"argparse", "gettext"}) == []


def test_a_reused_parser_behaves_like_a_fresh_one(capsys, tmp_path):
    messy = tmp_path / "messy.psl"
    messy.write_text("ms ON Anna,Anna speaks.\n", encoding="utf-8")
    sheet = tmp_path / "slow.sheet"
    sheet.write_text("duration.cross = 4\n", encoding="utf-8")
    calls = [
        ["check", str(CROSS)],
        ["check", "--json", str(OFFSCREEN)],
        ["render", str(CROSS)],
        ["check", "--bogus", str(CROSS)],
        ["check", "--help"],
        ["fmt", str(messy)],
        ["simulate", "--style", str(sheet), str(CROSS)],
    ]

    def one_round():
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as stop:
                code = ("SystemExit", stop.code)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    # The second round's clean check runs after the first round's usage errors.
    first, second = one_round(), one_round()
    assert [code for code, _, _ in first] == [
        0, 1, ("SystemExit", 2), ("SystemExit", 2), ("SystemExit", 0), 0, 0]
    assert second == first
    assert first[0] == (0, "", "")


# --- the cyclic garbage collector ---------------------------------------------

def test_no_command_leaves_cyclic_garbage(capsys, tmp_path):
    # Every command frees what it allocates by reference counting alone,
    # rejected boards included, which is what lets main pause the collector.
    run(capsys, "check", str(CROSS))  # building the shared parser leaves cycles, once
    gc.collect()
    left = {}
    for path in corpus_paths() + broken_paths():
        for command in ("check", "fmt", "compile", "simulate", "stats", "render"):
            out_flag = ["--out", str(tmp_path)] if command == "render" else []
            run(capsys, command, str(path), *out_flag)
            found = gc.collect()
            if found:
                left[f"{command} {path.parent.name}/{path.name}"] = found
    # usage errors, which raise SystemExit(2), and help, which raises SystemExit(0)
    commands = ("check", "fmt", "compile", "simulate", "render", "stats", "fuzz")
    for argv in (["check", "--bogus", str(CROSS)], ["check"], ["bogus"], ["fuzz", "--count", "x"],
                 [], ["--help"], *([command, "--help"] for command in commands)):
        with pytest.raises(SystemExit):
            main(argv)
        capsys.readouterr()
        found = gc.collect()
        if found:
            left[" ".join(argv)] = found
    assert left == {}


def _outcome(argv):
    try:
        return main(argv)
    except SystemExit as stop:
        return ("SystemExit", stop.code)
    except RuntimeError as failure:
        return ("raised", str(failure))


@pytest.fixture
def collector():
    """Yields a function that sets the collector on or off; the state the
    test started with is restored after it."""
    was = gc.isenabled()
    yield lambda on: gc.enable() if on else gc.disable()
    if was:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("on", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, collector, on):
    def failing(sb):
        raise RuntimeError("inside a command")

    monkeypatch.setattr(cli, "format_storyboard", failing)  # fmt's last step
    calls = [
        (["check", str(CROSS)], 0),
        (["check", str(OFFSCREEN)], 1),
        (["check", str(CORPUS_DIR / "missing.psl")], 2),
        (["check", "--bogus", str(CROSS)], ("SystemExit", 2)),
        (["check", "--help"], ("SystemExit", 0)),
        (["fmt", str(CROSS)], ("raised", "inside a command")),
    ]
    for argv, expected in calls:
        collector(on)
        assert _outcome(argv) == expected
        assert gc.isenabled() is on, argv
    capsys.readouterr()


def test_a_nested_call_keeps_the_collector_paused(capsys, monkeypatch, collector):
    seen = []
    format_storyboard = cli.format_storyboard

    def nesting(sb):
        seen.append(gc.isenabled())
        seen.append(main(["check", str(CROSS)]))
        seen.append(gc.isenabled())
        return format_storyboard(sb)

    monkeypatch.setattr(cli, "format_storyboard", nesting)
    collector(True)
    assert main(["fmt", str(CROSS)]) == 0
    assert seen == [False, 0, False]
    assert gc.isenabled()
    capsys.readouterr()


@pytest.fixture(scope="module")
def reel(tmp_path_factory):
    """A 300-shot board: the shots of generated boards, seeds 0, 1, ..., cut
    together, as ``tests/test_slope._board`` builds its boards."""
    shots, joins, seed = [], [], 0
    while len(shots) < 300:
        sb = psl.generate_storyboard(random.Random(seed), 6)
        joins += ([psl.ShotTransition.CUT] if shots else []) + list(sb.joins)
        shots += sb.shots
        seed += 1
    path = tmp_path_factory.mktemp("reel") / "reel.psl"
    text = psl.format_storyboard(psl.Storyboard(tuple(shots[:300]), tuple(joins[:299])))
    path.write_text(text + "\n", encoding="utf-8")
    return path


def test_simulate_runs_no_collection(capsys, collector, reel):
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    collector(True)
    gc.callbacks.append(record)
    try:
        code = main(["simulate", str(reel)])
    finally:
        gc.callbacks.remove(record)
    assert collections == []
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert len(json.loads(out)["entries"]) > 300


@pytest.mark.parametrize("command", ["compile", "simulate"])
def test_a_reader_that_stops_early_gets_one_line_and_exit_2(reel, command):
    # The document outgrows the pipe's buffer, so the child is still
    # writing when the reader closes its end.
    src = str(Path(psl.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen([sys.executable, "-m", "psl", command, str(reel)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env={**os.environ, "PYTHONPATH": path})
    try:
        assert child.stdout.read(20) == b'{\n  "psl_schema": 1,'
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    finally:
        child.kill()
        child.stdout.close()
        child.stderr.close()
    assert (code, err) == (2, b"psl: cannot write to standard output: Broken pipe\n")


class _CountingSink(io.TextIOBase):
    """A standard output that counts the UTF-8 bytes written to it and keeps none."""

    def __init__(self):
        super().__init__()
        self.written = 0

    def write(self, text):
        self.written += len(text.encode("utf-8"))
        return len(text)


def _traced(argv):
    """The tracemalloc peak of one ``main(argv)`` call, and the bytes it wrote to stdout."""
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sink.written


def _argv(command, file, out):
    """``command FILE``, with ``--out OUT`` for render."""
    return [command, str(file)] + (["--out", str(out)] if command == "render" else [])


@pytest.fixture(scope="module")
def check_peak(reel, tmp_path_factory):
    """``check``'s peak on the reel, after one call of every command on a
    small board has imported what it runs."""
    out = tmp_path_factory.mktemp("warm")
    for command in ("check", "compile", "simulate", "render"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(_argv(command, CROSS, out)) == 0
    return _traced(["check", str(reel)])[0]


@pytest.mark.parametrize("command", ["compile", "simulate", "render"])
def test_output_is_written_as_it_is_made(reel, check_peak, tmp_path, command):
    """A command's traced peak exceeds ``check``'s by less than the bytes it
    writes (its stdout, or the sketches for render): no command holds its
    whole output at once."""
    out = tmp_path / "frames"
    peak, written = _traced(_argv(command, reel, out))
    if command == "render":
        written = sum(p.stat().st_size for p in out.iterdir())
    assert peak - check_peak < written, (
        f"{command}: peak {peak} B, check's {check_peak} B, {written} B written")


def test_the_library_and_the_command_line_read_a_stylesheet_alike(capsys, tmp_path):
    sheet = tmp_path / "mac.sheet"
    sheet.write_bytes(b"profile = back\rduration.speak = 9\n")
    with pytest.raises(StylesheetError) as exc:
        load_stylesheet(str(sheet))
    code, out, err = run(capsys, "check", "--style", str(sheet), str(CROSS))
    assert (code, out) == (1, "")
    assert err == f"psl: bad stylesheet {sheet}: {exc.value}\n"
