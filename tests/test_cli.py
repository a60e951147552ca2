import argparse
import io
import os
import subprocess
import sys
import textwrap

import pytest

from syncswitch import Objective
from syncswitch.automaton import Dfa, parse_dfa
from syncswitch.cli import build_parser, main
from syncswitch.families import cerny
from syncswitch.automaton import serialize_dfa


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode()), encoding="utf-8"))
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_gen_pipe_sw(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "gen", "cerny", "4")
    assert code == 0 and out.startswith("4 2\n")
    code, out, _ = run_cli(capsys, "sw", "-", stdin=out, monkeypatch=monkeypatch)
    assert code == 0 and out == "5\n"


def test_gen_a9_sw(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "gen", "a", "9")
    assert code == 0
    code, out, _ = run_cli(capsys, "sw", "-", stdin=out, monkeypatch=monkeypatch)
    assert code == 0 and out == "41\n"


def test_ssl_from_file(capsys, tmp_path):
    path = tmp_path / "c4.dfa"
    path.write_text(serialize_dfa(cerny(4)))
    code, out, _ = run_cli(capsys, "ssl", str(path))
    assert code == 0 and out == "9\n"


def test_all_generators_round_trip(capsys):
    from syncswitch.families import (a_family, b_family, cyclic_counterexample,
                                     fixture, p_family, p_variant, q_family, r_family)

    cases = [
        ("cerny", "5", cerny(5)), ("p", "4", p_family(4)),
        ("p-variant", "4", p_variant(4)), ("r", "5", r_family(5)),
        ("q", "6", q_family(6)), ("a", "7", a_family(7)), ("b", "6", b_family(6)),
        ("cyclic-counterexample", None, cyclic_counterexample()),
        ("fixture", "t5", fixture("t5")),
    ]
    for family, arg, expected in cases:
        argv = ["gen", family] + ([arg] if arg else [])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert parse_dfa(out) == expected


@pytest.mark.parametrize("argv", [
    ["ssl"], ["sw"],
    *([cmd, "--objective", o.value] for cmd in ("opt", "count") for o in Objective),
], ids=lambda argv: "-".join(a for a in argv if a != "--objective"))
def test_non_synchronizing_exit(capsys, monkeypatch, argv):
    code, out, err = run_cli(capsys, *argv, "-", stdin="2 2\n0 0\n1 1\n", monkeypatch=monkeypatch)
    assert code == 1 and "not synchronizing" in err and out == ""


def test_parse_error_exit(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "ssl", "-", stdin="junk\n", monkeypatch=monkeypatch)
    assert code == 2 and "parse error" in err


@pytest.mark.parametrize("name", ["missing.dfa", "."])
def test_unreadable_file_exit(capsys, tmp_path, name):
    # a missing path or a directory prints the usage and exits 2
    path = tmp_path / name
    with pytest.raises(SystemExit) as exc:
        main(["sw", str(path)])
    _, err = capsys.readouterr()
    assert exc.value.code == 2 and err.startswith("usage: ")
    assert f"cannot read {path}" in err and "Traceback" not in err


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_utf8_input_exit(capsys, monkeypatch, tmp_path, source):
    # bytes that are not UTF-8 are not in the DFA text format
    path = tmp_path / "bad.dfa"
    path.write_bytes(b"\xff\xfe")
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8"))
        path = "-"
    code, out, err = run_cli(capsys, "sw", str(path))
    assert code == 2 and out == ""
    assert err == "parse error: input is not UTF-8 text (invalid start byte at byte 0)\n"


def test_closed_stdin_exit(capsys, monkeypatch):
    # with stdin closed at start-up Python sets sys.stdin to None
    monkeypatch.setattr("sys.stdin", None)
    with pytest.raises(SystemExit) as exc:
        main(["sw", "-"])
    _, err = capsys.readouterr()
    assert exc.value.code == 2 and err.startswith("usage: ")
    assert "cannot read -: standard input is closed" in err


def test_non_utf8_stdin_under_c_locale():
    # a C locale reads stdin with surrogateescape; the bytes are decoded
    # strictly all the same
    done = subprocess.run([sys.executable, "-m", "syncswitch.cli", "sw", "-"], input=b"\xff\xfe",
                          capture_output=True,
                          env={**os.environ, "LC_ALL": "C", "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 2 and done.stdout == b""
    assert done.stderr == b"parse error: input is not UTF-8 text (invalid start byte at byte 0)\n"


def test_scalar_commands_leave_numpy_unloaded(tmp_path):
    # in a fresh interpreter, since this one already holds numpy: only the
    # searches import it
    path = tmp_path / "c4.dfa"
    path.write_text(serialize_dfa(cerny(4)))
    script = textwrap.dedent(f"""
        import sys
        import syncswitch, syncswitch.cli, syncswitch.checks
        assert syncswitch.cli.main(["sw", {str(path)!r}]) == 0
        assert syncswitch.cli.main(["verify-lemmas", "--n", "6"]) == 0
        assert "numpy" not in sys.modules
        from syncswitch import search
        assert "numpy" in sys.modules and search.canonical_form
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("5\n")


def test_usage_error_exit():
    for argv in (["no-such-command"], ["gen", "nope", "3"], ["search"],
                 ["gen", "cerny"], ["gen", "cerny", "x"], ["gen", "fixture"],
                 ["gen", "fixture", "nope"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_domain_error_exit(capsys):
    code, _, err = run_cli(capsys, "gen", "cerny", "1")
    assert code == 1 and "error" in err


def _choices(command, dest):
    """The choice list of one option of one subcommand."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == dest)


def test_cli_vocabularies():
    # `opt` and `count` take every objective the library has
    values = {o.value for o in Objective}
    assert set(_choices("opt", "objective")) == values
    assert set(_choices("count", "objective")) == values
    # the lemma sample budget is fixed: no --samples flag
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemmas", "--n", "6", "--samples", "5"])
    assert exc.value.code == 2


def _refusal(capsys, *argv, stdin=None, monkeypatch=None):
    """The one error line of a command that must exit 1 with no output."""
    code, out, err = run_cli(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 1 and out == "" and "Traceback" not in err, (argv, err)
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    return err


def test_size_guards_exit(capsys, monkeypatch):
    """Each operation past its own size bound exits 1 with a one-line error."""
    text = serialize_dfa(Dfa([[(q + 1) % 40, 0] for q in range(40)]))
    assert "subset search" in _refusal(capsys, "sw", "-", stdin=text, monkeypatch=monkeypatch)

    # cycles of lengths 16, 9, 5, 7, 11 and 13: 720,720 distinct powers
    perm, start = [], 0
    for c in (16, 9, 5, 7, 11, 13):
        perm += [start + (i + 1) % c for i in range(c)]
        start += c
    text = serialize_dfa(Dfa([[t] for t in perm]))
    assert "distinct powers" in _refusal(capsys, "closure", "-", stdin=text, monkeypatch=monkeypatch)

    assert "verify_lemmas needs n < 24" in _refusal(capsys, "verify-lemmas", "--n", "24")
    assert "verify_lemmas needs n < 24" in _refusal(capsys, "verify-lemmas", "--n", "30")


def test_opt_output(capsys, monkeypatch):
    text = serialize_dfa(cerny(4))
    code, out, _ = run_cli(capsys, "opt", "-", "--objective", "length",
                           stdin=text, monkeypatch=monkeypatch)
    assert code == 0
    assert out.startswith("word=") and "len=9" in out and "sw=" in out


def test_count_output(capsys, monkeypatch):
    from syncswitch.families import fixture
    text = serialize_dfa(fixture("t4"))
    code, out, _ = run_cli(capsys, "count", "-", stdin=text, monkeypatch=monkeypatch)
    assert code == 0 and out == "1\n"


def test_closure_output(capsys, monkeypatch):
    text = serialize_dfa(cerny(4))
    code, out, _ = run_cli(capsys, "closure", "-", stdin=text, monkeypatch=monkeypatch)
    assert code == 0
    assert out.startswith("4 4\n")
    assert "# s2 = a^2" in out
    parse_dfa(out)  # comments are ignored on re-parse


def test_closure_refuses_a_power_past_z(capsys, monkeypatch):
    # symbol 27 is a 3-cycle: its square s28 has no letter for its base, so nothing is written
    text = serialize_dfa(Dfa([[(q + 1) % 3 if s == 27 else q for s in range(28)]
                              for q in range(3)]))
    assert "26 symbols" in _refusal(capsys, "closure", "-", stdin=text, monkeypatch=monkeypatch)
    # the same 28 symbols with symbol 0 the 3-cycle: its power renders
    text = serialize_dfa(Dfa([[(q + 1) % 3 if s == 0 else q for s in range(28)]
                              for q in range(3)]))
    code, out, _ = run_cli(capsys, "closure", "-", stdin=text, monkeypatch=monkeypatch)
    assert code == 0 and out.startswith("3 29\n") and out.endswith("# s28 = a^2\n")


def test_transform_output(capsys, monkeypatch):
    text = serialize_dfa(cerny(4))
    code, out, _ = run_cli(capsys, "transform", "f", "-", stdin=text, monkeypatch=monkeypatch)
    assert code == 0 and out.startswith("8 3\n")
    code, out, _ = run_cli(capsys, "transform", "f2", "-", stdin=text, monkeypatch=monkeypatch)
    assert code == 0 and out.startswith("12 2\n")


def test_search_command(capsys):
    code, out, err = run_cli(capsys, "search", "--n", "3", "--jobs", "1")
    assert code == 0
    assert "max_sw=3" in out
    assert "SHARD" in err
    header = out.splitlines()[0]
    assert " worker_s=" in header and " wall_s=" in header and "elapsed=" not in header
    assert header.endswith(" workers=1")
    # 5,103 tables are below the pool grain: two jobs allowed, none started
    code, out, _ = run_cli(capsys, "search", "--n", "3", "--k", "3", "--jobs", "2")
    assert code == 0 and out.splitlines()[0].endswith(" workers=1")


def test_cyclic_search_command(capsys):
    code, out, _ = run_cli(capsys, "cyclic-search", "--n", "3", "--k", "3", "--jobs", "1")
    assert code == 0 and "max_sw=3" in out
    assert " wall_s=" in out.splitlines()[0]


def test_cyclic_search_without_a_synchronizing_table(capsys):
    # the one cyclic table of (3, 1) is a permutation: no maximum, no forms
    code, out, _ = run_cli(capsys, "cyclic-search", "--n", "3", "--k", "1", "--jobs", "1")
    lines = out.splitlines()
    fields = [f for f in lines[0].split() if not f.startswith(("worker_s=", "wall_s="))]
    assert code == 0 and len(lines) == 1
    assert fields == ("n=3 k=1 scanned=1 max_sw=none forms=0 convention=states+symbols "
                      "forms_states_only=0 workers=1").split()


def test_search_guard_exit(capsys):
    code, _, err = run_cli(capsys, "search", "--n", "7", "--jobs", "1")
    assert code == 1 and "--long" in err


def test_search_needs_a_worker(capsys):
    for jobs in ("0", "-2"):
        assert "at least one worker" in _refusal(capsys, "search", "--n", "3", "--jobs", jobs)


def test_search_past_a_64_bit_index_exit(capsys):
    # 2^64 and 3^63 tables per symbol-0 map: refused, not an OverflowError
    for argv in (("search", "--n", "2", "--k", "33"), ("cyclic-search", "--n", "3", "--k", "22")):
        assert "64-bit index" in _refusal(capsys, *argv, "--long", "--jobs", "1")


def test_search_past_the_relabeling_bound_exit(capsys):
    # 2^24 cyclic tables need no --long, but 2! 13! relabelings are refused
    assert "relabelings" in _refusal(capsys, "cyclic-search", "--n", "2", "--k", "13", "--jobs", "1")


def test_verify_paper_needs_a_worker(capsys):
    # refused before any check runs, so no check's progress line is printed
    assert "at least one worker" in _refusal(capsys, "verify-paper", "--jobs", "0")


def test_verify_lemmas_command(capsys):
    code, out, _ = run_cli(capsys, "verify-lemmas", "--n", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6 and all(line.startswith("LEMMA ") for line in lines)
