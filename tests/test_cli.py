"""CLI verbs, outputs and exit codes."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import strandgroups
from strandgroups import cli, words
from strandgroups.cli import main
from strandgroups.diagram import StrandDiagram
from strandgroups.words import random_word, word_to_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_conj_true(capsys):
    code, out, _ = run(capsys, "conj", "-g", "F", "x1", "x0^-1 x1 x0")
    assert code == 0 and out == "true"


def test_conj_false(capsys):
    code, out, _ = run(capsys, "conj", "-g", "F", "x0", "x1")
    assert code == 0 and out == "false"


def test_eq(capsys):
    code, out, _ = run(capsys, "eq", "-g", "F", "x0 x0^-1", "")
    assert code == 0 and out == "true"
    code, out, _ = run(capsys, "eq", "-g", "F", "x0", "x1")
    assert code == 0 and out == "false"


def test_reduce_counts_and_canon(capsys):
    code, out, _ = run(capsys, "reduce", "-g", "F", "x0 x0^-1")
    assert code == 0 and out == "vertices=0 edges=1"
    code, out, _ = run(capsys, "reduce", "--emit-canon", "x0")
    lines = out.splitlines()
    assert lines[0] == "vertices=4 edges=7"
    bytes.fromhex(lines[1])  # valid lowercase hex
    assert lines[1] == lines[1].lower()
    # conjugates share the emitted canonical hex
    _, out2, _ = run(capsys, "reduce", "--emit-canon", "x1^-1 x0 x1")
    assert out2.splitlines()[1] == lines[1]


def test_reduce_canon_v_is_a_conjugacy_class_form(capsys):
    def canon(word):
        code, out, _ = run(capsys, "reduce", "-g", "V", "--emit-canon", word)
        assert code == 0
        return out.splitlines()[1]

    pi0 = canon("pi0")
    assert canon("x0^-1 pi0 x0") == pi0
    assert canon("x0") != pi0


def test_reduce_trace(capsys):
    code, out, _ = run(capsys, "reduce", "--trace", "x0 x0^-1")
    lines = out.splitlines()
    assert lines[0] == "vertices=0 edges=1"
    assert len(lines) == 5  # four moves, newline-delimited triples
    for line in lines[1:]:
        kind, top, bottom = line.split()
        assert kind in ("I", "II") and top.isdigit() and bottom.isdigit()


@pytest.mark.parametrize(
    "group, lines, digest",
    [
        ("F", 2360, "a1683c4c1901c67475c13264fc3005e69c7fa5e6299b5562aed14ed177ff6577"),
        ("T", 2003, "60e0b4038044024b8513e044df4dba7ae6133361c2efc28bdad310f8d578baf2"),
        ("V", 1974, "33a7849ce3681905317fa5ba42f1c67aff6e77445350aa93a1c1ac5a350ff9f2"),
    ],
)
def test_reduce_trace_keeps_its_moves_in_order(capsys, group, lines, digest):
    # the moves of a seeded 10^3-letter word, pinned in the order they fire
    w = random_word(group, 1000, random.Random(81))
    code, out, _ = run(capsys, "reduce", "-g", group, "--trace", word_to_text(w))
    assert code == 0 and len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_rotnum(capsys):
    code, out, _ = run(capsys, "rotnum", "")
    assert code == 0 and out == "0/1"
    code, out, _ = run(capsys, "rotnum", "c c")
    assert code == 0 and "/" in out


def test_alphabet_error_exit_code(capsys):
    code, _, err = run(capsys, "conj", "-g", "F", "c", "c")
    assert code == 2 and "error" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "eq", "-g", "F", "x0 %%", "")
    assert code == 2


def test_exponent_too_large_to_expand_is_a_parse_error(capsys):
    # sys.maxsize + 1 is the least count that cannot be repeated; int()
    # reads at most 4300 digits
    for exp in (sys.maxsize + 1, -sys.maxsize - 1, 10**20 - 1, "9" * 5000):
        code, _, err = run(capsys, "eq", "-g", "F", f"x1 x0^{exp}", "x0")
        assert code == 2 and "parse error at 3: exponent of 'x0^" in err
    code, out, _ = run(capsys, "eq", "-g", "F", "x0^" + "0" * 30 + "1", "x0")
    assert (code, out) == (0, "true")


def test_oracle_verbs(capsys):
    code, out, _ = run(capsys, "oracle", "eq", "-g", "F", "x0 x0^-1", "")
    assert code == 0 and out == "true"
    code, out, _ = run(capsys, "oracle", "conj", "--max-len", "2", "x1", "x0^-1 x1 x0")
    assert code == 0 and out == "x0"
    code, out, _ = run(capsys, "oracle", "conj", "--max-len", "3", "x0", "x1")
    assert code == 0 and out == "none"


def test_export_json(capsys):
    code, out, _ = run(capsys, "export", "--format", "json", "x0")
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == 1 and len(obj["vertices"]) == 4
    code, out, _ = run(capsys, "export", "--format", "json", "--stage", "closed", "-g", "V", "pi0")
    obj = json.loads(out)
    assert obj["mode"] == "closed"


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", "--format", "dot", "--stage", "closed", "x0")
    assert code == 0 and out.startswith("digraph")


def test_export_does_not_depend_on_the_build_path(capsys, monkeypatch):
    # the block build and the per-letter build leave other ids (and, on the
    # cylinder, other wrap counts along the same paths); export renumbers both
    rng = random.Random(19)
    argvs = [
        ("export", "-g", group, "--stage", stage, "--format", fmt, text)
        for group in "FTV"
        for text in (word_to_text(random_word(group, rng.randrange(0, 200), rng)) for _ in range(8))
        for stage in ("square", "closed")
        for fmt in ("json", "dot")
    ]
    by_blocks = [run(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(cli, "reduced_diagram", lambda w: words.reduced_diagram(w, trace=[]))
    assert [run(capsys, *argv) for argv in argvs] == by_blocks
    assert all(code == 0 for code, _, _ in by_blocks)


def test_bench_rows(capsys):
    for group in ([], ["-g", "T"]):
        code, out, _ = run(capsys, "bench", "reduce", *group, "--lengths", "200,100", "--seed", "7")
        lines = out.splitlines()
        assert lines[0].startswith("#")
        rows = [line.split() for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [100, 200]  # sorted ascending
        assert all(len(r) == 4 for r in rows)
        assert all(r[3] == r[2] for r in rows)  # the streamed diagram holds only live slots


def test_bench_lengths_must_be_positive_integers(capsys):
    for lengths in ("abc", "", "10,-5", "0", "10,,20"):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "reduce", "--lengths", lengths])
        assert exc.value.code == 2
        assert "error: argument --lengths" in capsys.readouterr().err


def test_oracle_max_len_must_be_non_negative(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "conj", "--max-len", "-1", "x0", "x0"])
    assert exc.value.code == 2
    assert "error: argument --max-len" in capsys.readouterr().err
    code, out, _ = run(capsys, "oracle", "conj", "--max-len", "0", "x0", "x0")
    assert (code, out) == (0, "<empty>")


def test_conj_dispatch_t_v(capsys):
    code, out, _ = run(capsys, "conj", "-g", "T", "c", "c")
    assert code == 0 and out == "true"
    code, out, _ = run(capsys, "conj", "-g", "V", "pi0", "x0^-1 pi0 x0")
    assert code == 0 and out == "true"


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "--emit-canon", "W"),
        ("eq", "W", "x0 x1"),
        ("conj", "-g", "T", "x1", "W"),
        ("rotnum", "W"),
        ("oracle", "eq", "W", "x1"),
        ("oracle", "conj", "--max-len", "1", "x1", "W"),
        ("export", "--stage", "closed", "W"),
    ],
)
def test_word_arguments_read_files_and_stdin(capsys, tmp_path, monkeypatch, argv):
    word = "x0^-1 x1 x0"
    path = tmp_path / "word.txt"
    path.write_text(word + "\n")
    want = run(capsys, *(word if a == "W" else a for a in argv))
    assert want[0] == 0
    assert run(capsys, *(f"@{path}" if a == "W" else a for a in argv)) == want
    monkeypatch.setattr(sys, "stdin", io.StringIO(word))
    assert run(capsys, *("-" if a == "W" else a for a in argv)) == want


def test_a_second_stdin_word_is_a_user_error(capsys, monkeypatch):
    for argv in (["eq", "-", "-"], ["conj", "-g", "T", "-", "-"], ["oracle", "eq", "-", "-"], ["oracle", "conj", "-", "-"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO("x0 x1"))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: standard input (-) holds one word only" in capsys.readouterr().err
    # nothing outlives a call: the next command line reads stdin again
    for _ in range(2):
        monkeypatch.setattr(sys, "stdin", io.StringIO("x0 x1"))
        assert run(capsys, "eq", "x0 x1", "-") == (0, "true", "")


def test_no_verb_runs_the_two_step_square_path(monkeypatch):
    # every verb builds square diagrams with the streamed kernel
    # (words._seams); none fires a move through StrandDiagram's methods
    def refuse(*args):
        raise AssertionError("a verb reduced a square diagram move by move")

    monkeypatch.setattr(StrandDiagram, "splice", refuse)
    monkeypatch.setattr(StrandDiagram, "edge_class", refuse)
    w = "x0 x1 X0 x1^2 X1 x0 X1"
    argvs = [
        ["reduce", w],
        ["reduce", "--trace", "--emit-canon", w],
        ["eq", w, "x1 x0"],
        *(["conj", "-g", g, w, "x1 x0 x1"] for g in "FTV"),
        ["rotnum", "x0^-1 c x0 x1 X1 c"],
        *(["export", "--stage", stage, w] for stage in ("square", "closed")),
        ["oracle", "eq", w, "x1 x0"],
        ["bench", "reduce", "--lengths", "10,100"],
    ]
    for argv in argvs:
        assert main(argv) == 0, argv


def test_unreadable_word_file_is_a_user_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["rotnum", f"@{tmp_path / 'missing.txt'}"])
    assert exc.value.code == 2
    assert "cannot read" in capsys.readouterr().err


def test_long_word_from_a_file_and_stdin_in_a_subprocess(tmp_path):
    word = word_to_text(random_word("F", 10**5, random.Random(5)))
    assert len(word.encode()) > 128 * 1024  # more than one exec argument may hold
    path = tmp_path / "word.txt"
    path.write_text(word)
    src = str(Path(strandgroups.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "strandgroups.cli", "eq", f"@{path}", "-"],
        input=word,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "true"), proc.stderr
