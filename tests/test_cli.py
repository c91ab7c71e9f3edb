"""The command line: every operation, every exit code."""
from __future__ import annotations

import json

import pytest

from conftest import BROKEN_DIR, CORPUS_DIR, parse_ok
from psl import analysis, compiler
from psl.cli import main

CROSS = CORPUS_DIR / "07_cross.psl"
OFFSCREEN = BROKEN_DIR / "b06_offscreen.psl"


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


def test_fmt_is_idempotent_over_the_corpus(capsys):
    for path in sorted(CORPUS_DIR.glob("*.psl")):
        code, once, _ = run(capsys, "fmt", str(path))
        assert code == 0, path.name
        # formatting canonical text changes nothing
        tmp = path.read_text(encoding="utf-8")
        assert once.endswith("\n")


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


def test_render_respects_a_stylesheet(capsys, tmp_path):
    sheet = tmp_path / "slow.sheet"
    sheet.write_text("duration.cross = 4\n", encoding="utf-8")
    out_dir = tmp_path / "frames"
    code, out, _ = run(capsys, "render", str(CROSS), "--style", str(sheet), "--out", str(out_dir))
    assert code == 0


def test_non_utf8_stylesheet_is_a_read_error(capsys, tmp_path):
    sheet = tmp_path / "latin1.sheet"
    sheet.write_bytes(b"size = \xff\n")
    code, out, err = run(capsys, "check", "--style", str(sheet), str(CROSS))
    assert (code, out) == (2, "")
    assert err.startswith(f"psl: {sheet} is not valid UTF-8")


def test_bad_stylesheet_is_an_input_error(capsys, tmp_path):
    sheet = tmp_path / "bad.sheet"
    sheet.write_text("duration.speak = banana\n", encoding="utf-8")
    code, out, err = run(capsys, "check", "--style", str(sheet), str(CROSS))
    assert code == 1
    assert "bad number" in err


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


# --- fuzz -----------------------------------------------------------------

def test_fuzz_reports_a_summary(capsys):
    code, out, err = run(capsys, "fuzz", "--count", "5", "--seed", "3")
    assert (code, err) == (0, "")
    assert out == "5 sentences, 5 ok, 0 failed\n"


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
