"""Command line behavior: exit codes, output formats, piping files around."""

import sys
from collections import Counter

import pytest

from squaregeo import emit_certificate, emit_instance, generate_bab, parse_certificate, recognize
from squaregeo import build_chord_graph, check_necessary
from squaregeo.cli import EXIT_NO, EXIT_UNDECIDED, EXIT_YES, _os_message, main
from squaregeo.errors import _echo
from squaregeo.pipeline import NO

from conftest import enumerate_bab_instances
from test_necessary import RIGID_FAIL_EDGES, RIGID_FAIL_TWICE
from test_pipeline import NO_CORE_EDGE_EDGES, coprime_denominator_certificate
from squaregeo import build_graph, validate_bab


@pytest.fixture
def g8_file(tmp_path, g8):
    g, p = g8
    path = tmp_path / "g8.txt"
    path.write_text(emit_instance(g, p))
    return str(path)


@pytest.fixture
def rigid_fail_file(tmp_path):
    g = build_graph(7, RIGID_FAIL_EDGES)
    p = validate_bab(g, [0, 1, 2], [1, 2, 3], [4, 5, 6])
    path = tmp_path / "no.txt"
    path.write_text(emit_instance(g, p))
    return str(path)


@pytest.fixture
def d7_file(tmp_path, disconnected7):
    g, p = disconnected7
    path = tmp_path / "d7.txt"
    path.write_text(emit_instance(g, p))
    return str(path)


def test_validate_ok(g8_file, capsys):
    assert main(["validate", g8_file]) == EXIT_YES
    out = capsys.readouterr().out
    assert "valid: n=8" in out and "|y|=4" in out


def test_validate_reads_stdin(g8, capsys, monkeypatch):
    import io

    g, p = g8
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_instance(g, p)))
    assert main(["validate", "-"]) == EXIT_YES
    assert "valid: n=8" in capsys.readouterr().out


def test_chord_graph_listing(g8_file, capsys):
    assert main(["chord-graph", g8_file]) == EXIT_YES
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "nodes 8"
    assert "node 0,5" in lines
    assert sum(1 for s in lines if s.startswith("link ")) == 9


def test_necessary_pass_and_fail(g8_file, rigid_fail_file, capsys):
    assert main(["necessary", g8_file]) == EXIT_YES
    assert capsys.readouterr().out.strip() == "necessary: pass"

    assert main(["necessary", rigid_fail_file]) == EXIT_NO
    out = capsys.readouterr().out
    assert "necessary: fail" in out and "rigid" in out


def test_necessary_prints_the_certificate_reason(tmp_path, capsys):
    """One text per refutation: on every NO of the n=6 census and both
    rigid-free fixtures, ``check_necessary``, ``recognize`` and the
    ``necessary`` command give the same reason."""
    cases = [(g, p) for g, p in enumerate_bab_instances(6) if recognize(g, p).verdict == NO]
    g = build_graph(7, RIGID_FAIL_EDGES)
    cases += [(g, validate_bab(g, [0, 1, 2], [1, 2, 3], [4, 5, 6])), generate_bab(*RIGID_FAIL_TWICE)]
    path = tmp_path / "no.txt"
    kinds = Counter()
    for g, p in cases:
        reason = recognize(g, p).reason
        assert check_necessary(g, p, build_chord_graph(g, p)).reason == reason
        path.write_text(emit_instance(g, p))
        assert main(["necessary", str(path)]) == EXIT_NO
        assert capsys.readouterr().out.splitlines() == ["necessary: fail", f"reason: {reason}"]
        kinds[reason.split(":")[0], "odd chord-graph cycle" in reason] += 1
    assert kinds == {("coloring", True): 18, ("coloring", False): 12, ("rigid-free", False): 2}


def test_necessary_out_of_scope(d7_file, capsys):
    assert main(["necessary", d7_file]) == EXIT_UNDECIDED
    out = capsys.readouterr().out
    assert "necessary: out-of-scope" in out
    assert "3 non-isolated components" in out


def test_recognize_text_output(g8_file, capsys):
    assert main(["recognize", g8_file]) == EXIT_YES
    out = capsys.readouterr().out
    assert "verdict: yes" in out and "route: sufficient" in out
    assert "order1: 0 1 2 4 3 5 6 7" in out
    assert "vertex 3: (10/9, 0)" in out


def test_recognize_structured_matches_library(g8_file, g8, capsys):
    g, p = g8
    assert main(["recognize", "--format", "structured", g8_file]) == EXIT_YES
    assert capsys.readouterr().out == emit_certificate(recognize(g, p))


def test_recognize_exit_codes(rigid_fail_file, d7_file, capsys):
    assert main(["recognize", rigid_fail_file]) == EXIT_NO
    assert "verdict: no" in capsys.readouterr().out
    assert main(["recognize", d7_file]) == EXIT_UNDECIDED
    assert "route: assumption" in capsys.readouterr().out


def test_recognize_oracle_flag(d7_file, capsys):
    assert main(["recognize", "--oracle", "--oracle-bound", "7", d7_file]) == EXIT_YES
    out = capsys.readouterr().out
    assert "route: oracle" in out and "reason: audit:" in out


def test_embed_prints_coords_or_complains(g8_file, rigid_fail_file, capsys):
    assert main(["embed", g8_file]) == EXIT_YES
    assert "vertex 0: (0, 1)" in capsys.readouterr().out

    assert main(["embed", rigid_fail_file]) == EXIT_NO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no embedding: verdict no" in captured.err


def test_gen_validate_recognize_pipe(tmp_path, capsys):
    assert main(["gen", "--sizes", "1,2,1,3", "--density", "0.6", "--seed", "6"]) == EXIT_YES
    inst = capsys.readouterr().out
    path = tmp_path / "gen.txt"
    path.write_text(inst)
    assert main(["validate", str(path)]) == EXIT_YES
    capsys.readouterr()
    assert main(["recognize", str(path)]) == EXIT_YES
    assert "verdict: yes" in capsys.readouterr().out


@pytest.mark.parametrize("density", ["nan", "1.5", "-0.1", "0.0", "1.0"])
def test_gen_takes_a_density_in_the_unit_interval_only(capsys, density):
    ok = 0 <= float(density) <= 1
    assert main(["gen", "--sizes", "1,2,1,3", "--density", density]) == (EXIT_YES if ok else EXIT_UNDECIDED)
    out, err = capsys.readouterr()
    if ok:
        assert out.startswith("bab-instance v1\n") and err == ""
    else:
        assert out == "" and err == f"error: density wants a number in [0, 1], got {float(density)!r}\n"


def test_gen_rejects_bad_sizes(capsys):
    assert main(["gen", "--sizes", "1,2,3"]) == EXIT_UNDECIDED
    assert "error: sizes wants exactly four" in capsys.readouterr().err
    assert main(["gen", "--sizes", "a,b,c,d"]) == EXIT_UNDECIDED
    assert "error: sizes wants four integers" in capsys.readouterr().err


@pytest.mark.parametrize("sizes, start", [
    ("1,2,1," + "9" * 30, "error: block sizes sum to 10000"),
    ("x" * 5000, "error: sizes wants four integers, got 'xxxx"),
], ids=["sum", "text"])
def test_gen_bounds_bad_sizes_in_one_line(capsys, sizes, start):
    """A block size past any list length is refused before a range is
    built, and a 5,000-character sizes text is cut in the message."""
    assert main(["gen", "--sizes", sizes]) == EXIT_UNDECIDED
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(start), err[:100]
    assert len(err.encode()) < 300 and err.count("\n") == 1


# A 5,000-digit value, which int() refuses where Python limits the digits
# it converts, and a 5,000-character one that is no number anywhere.
LONG_INTS = (["9" * 5000] if getattr(sys, "get_int_max_str_digits", lambda: 0)() else []) + ["9" * 4999 + "x"]


@pytest.mark.parametrize("value", LONG_INTS)
@pytest.mark.parametrize("option", [["gen", "--sizes", "1,2,1,3", "--seed"], ["oracle", "--oracle-bound"],
                                    ["recognize", "--oracle-bound"], ["embed", "--oracle-bound"],
                                    ["gen", "--sizes", "1,2,1,3", "--density"]],
                         ids=["gen-seed", "oracle", "recognize", "embed", "gen-density"])
def test_int_options_bound_a_bad_value_in_their_error(capsys, option, value):
    """The int options and ``--density`` cut a rejected value in argparse's
    error. ``float`` takes any run of digits, as inf, which ``gen``'s range
    check refuses in one short line."""
    argv = option + [value] + ([] if option[0] == "gen" else ["-"])
    kind = "float" if option[-1] == "--density" else "int"
    if kind == "float" and value.isdigit():
        assert main(argv) == EXIT_UNDECIDED
        assert capsys.readouterr() == ("", "error: density wants a number in [0, 1], got inf\n")
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_UNDECIDED
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert lines[-1].endswith(f"error: argument {option[-1]}: invalid {kind} value: '{'9' * 40}' … (4960 more characters)")
    assert len(err.encode()) < 600 and sum("error:" in line for line in lines) == 1


CUT = f"'{'x' * 40}' … (4960 more characters)"


@pytest.mark.parametrize("argv, want", [
    (["recognize", "--format", "x" * 5000, "-"], f"argument --format: invalid choice: {CUT} (choose from "),
    (["recognize", "--format=" + "x" * 5000, "-"], f"argument --format: invalid choice: {CUT} (choose from "),
    (["x" * 5000], f"argument command: invalid choice: {CUT} (choose from "),
    (["recognize", "-", "--o=" + "x" * 5000], f"ambiguous option: --o={'x' * 36} … (4964 more characters) could match "),
    (["recognize", "-", "--oracle=" + "x" * 5000], f"argument --oracle: ignored explicit argument {CUT}"),
], ids=["format", "format-equals", "subcommand", "ambiguous", "explicit"])
def test_choices_bound_a_bad_value_in_their_error(capsys, argv, want):
    """A rejected choice, an unknown subcommand too, is cut in argparse's
    error as in every error; the choices are still listed. So is every
    other argument argparse echoes: an ambiguous option, and the explicit
    argument that a flag cannot take."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_UNDECIDED
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert f"error: {want}" in lines[-1]
    assert len(err.encode()) < 600 and sum("error:" in line for line in lines) == 1


@pytest.mark.parametrize("prefix", ["-h", "-hh", "-h=h", "-hh="])
def test_help_chains_are_cut_in_their_error(capsys, prefix):
    """argparse reads the ``h``s after ``-h`` as more ``-h`` flags and
    rejects the rest as an argument that ``-h`` cannot take; that argument
    is cut as in every error. From Python 3.13 on, argparse prints the help
    for some of these instead, with exit 0."""
    with pytest.raises(SystemExit) as exc:
        main(["recognize", "-", prefix + "x" * 5000])
    err = capsys.readouterr().err
    if exc.value.code == 0:
        assert sys.version_info >= (3, 13) and err == ""
        return
    assert exc.value.code == EXIT_UNDECIDED
    lines = err.splitlines()
    assert "error: argument -h/--help: ignored explicit argument '" in lines[-1]
    assert lines[-1].endswith(" more characters)")
    assert len(err.encode()) < 600 and sum("error:" in line for line in lines) == 1


@pytest.mark.parametrize("argv, extras", [
    (["gen", "--sizes", "1,1,1,1", "--filter", "x" * 5000], ["--filter", "x" * 5000]),
    (["validate", "-", "--bogus", "x" * 5000], ["--bogus", "x" * 5000]),
    (["validate", "-"] + ["--b"] * 3000, ["--b"] * 3000),
], ids=["gen-filter", "validate-bogus", "validate-many"])
def test_unrecognized_arguments_are_cut_in_their_error(capsys, argv, extras):
    """The arguments that no option takes are cut in argparse's error as
    in every error, however many there are; gen has no --filter option."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_UNDECIDED
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    text = " ".join(extras)
    assert lines[-1] == f"squaregeo: error: unrecognized arguments: {text[:40]} … ({len(text) - 40} more characters)"
    assert len(err.encode()) < 600 and sum("error:" in line for line in lines) == 1


def test_choices_show_a_short_bad_value_as_argparse_does(capsys):
    """The value is quoted whole; how the choices are quoted varies with
    the Python version."""
    with pytest.raises(SystemExit) as exc:
        main(["recognize", "--format", "xml", "-"])
    assert exc.value.code == EXIT_UNDECIDED
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "squaregeo recognize: error: argument --format: invalid choice: 'xml' (choose from "
    )


@pytest.mark.parametrize("option, kind", [("--seed", "int"), ("--density", "float")])
def test_number_options_show_a_short_bad_value_as_argparse_does(capsys, option, kind):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--sizes", "1,2,1,3", option, "1/2"])
    assert exc.value.code == EXIT_UNDECIDED
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"squaregeo gen: error: argument {option}: invalid {kind} value: '1/2'"


def test_int_options_read_valid_values_as_before(tmp_path, capsys):
    assert main(["gen", "--sizes", "1,2,1,3", "--seed", "-7"]) == EXIT_YES
    assert capsys.readouterr().out == emit_instance(*generate_bab((1, 2, 1, 3), 0.5, -7))
    path = tmp_path / "inst.txt"
    path.write_text(emit_instance(*generate_bab((1, 2, 1, 3), 0.5, 0)))
    assert main(["oracle", "--oracle-bound", " 7 ", str(path)]) in (EXIT_YES, EXIT_NO)
    assert capsys.readouterr().out.startswith("verdict: ")


def test_oracle_bounds_a_long_negative_bound_in_its_error(tmp_path, capsys):
    """A 4,001-character bound is taken, and refused by the search's scope
    check in one bounded line."""
    path = tmp_path / "inst.txt"
    path.write_text(emit_instance(*generate_bab((1, 2, 1, 3), 0.5, 0)))
    assert main(["oracle", "--oracle-bound", "-" + NINES, str(path)]) == EXIT_UNDECIDED
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: brute force limited to -{'9' * 39} … (3961 more characters) vertices, got 7\n"


def test_verify_round_trip(tmp_path, g8, g8_file, capsys):
    g, p = g8
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(emit_certificate(recognize(g, p)))
    assert main(["verify", g8_file, str(cert_path)]) == EXIT_YES
    assert capsys.readouterr().out.strip() == "certificate ok"


def test_verify_flags_tampering(tmp_path, g8, g8_file, capsys):
    g, p = g8
    text = emit_certificate(recognize(g, p))
    bad = text.replace("coord 0 0 1", "coord 0 0 7")
    assert bad != text
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(bad)
    assert main(["verify", g8_file, str(cert_path)]) == EXIT_NO
    assert "problem:" in capsys.readouterr().out


def test_verify_rejects_an_order_that_is_not_a_permutation(tmp_path, g8, g8_file, capsys):
    g, p = g8
    text = emit_certificate(recognize(g, p))
    order1 = next(line for line in text.splitlines() if line.startswith("order1 "))
    bad = text.replace(order1, "order1 0 1 2 9 4 5 6 7")
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(bad)
    assert main(["verify", g8_file, str(cert_path)]) == EXIT_UNDECIDED
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 4: order1 is not a permutation")


def test_verify_reports_missing_coordinates(tmp_path, g8, g8_file, capsys):
    g, p = g8
    text = emit_certificate(recognize(g, p))
    last = text.splitlines()[-1]
    assert last.startswith("coord 7 ")
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(text.replace(last + "\n", ""))
    assert main(["verify", g8_file, str(cert_path)]) == EXIT_NO
    out = capsys.readouterr().out
    assert out == "problem: embedding has 7 coordinates for 8 vertices\n"


def test_oracle_command(tmp_path, capsys):
    g = build_graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    p = validate_bab(g, [0, 1], [0, 1], [2, 3])
    path = tmp_path / "c4.txt"
    path.write_text(emit_instance(g, p))
    assert main(["oracle", str(path)]) == EXIT_YES
    out = capsys.readouterr().out
    assert "order1: 0 1 2 3" in out


def test_oracle_structured_no_verifies(tmp_path, capsys):
    g = build_graph(6, NO_CORE_EDGE_EDGES)
    p = validate_bab(g, [0, 1, 2], [1, 2, 3], [4, 5])
    inst = tmp_path / "no.txt"
    inst.write_text(emit_instance(g, p))
    assert main(["oracle", "--format", "structured", str(inst)]) == EXIT_NO
    out = capsys.readouterr().out
    cert = parse_certificate(out)
    assert cert.verdict == NO and cert.route == "oracle"
    assert cert.reason == "no order pair with disjoint forced sets"
    cert_path = tmp_path / "no.cert"
    cert_path.write_text(out)
    assert main(["verify", str(inst), str(cert_path)]) == EXIT_YES
    assert capsys.readouterr().out == "certificate ok\n"


def test_parse_error_goes_to_stderr(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("not an instance\n")
    assert main(["validate", str(path)]) == EXIT_UNDECIDED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: line 1")


def test_validate_rejects_a_repeated_n_line(tmp_path, g8, capsys):
    g, p = g8
    text = emit_instance(g, p).replace("n 8\n", "n 8\nn 8\n")
    path = tmp_path / "twice.txt"
    path.write_text(text)
    assert main(["validate", str(path)]) == EXIT_UNDECIDED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: line 3: duplicate n line\n"


def test_validate_caps_the_listed_vertices(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("bab-instance v1\nn 300000\nxa 0 1\nxb 1 2\ny 3\n")
    assert main(["validate", str(path)]) == EXIT_UNDECIDED
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024
    assert "missing=[4, 5, 6, 7, 8, 9, 10, 11, 12, 13, … (299986 more)] extra=[]" in err


def test_validate_rejects_a_huge_vertex_count_at_once(tmp_path, capsys):
    """n = 10**20 with four ids listed: the cover check runs before anything
    of size n is allocated."""
    path = tmp_path / "huge.txt"
    path.write_text("bab-instance v1\nn 100000000000000000000\nxa 0\nxb 0\ny 1\n")
    assert main(["validate", str(path)]) == EXIT_UNDECIDED
    err = capsys.readouterr().err
    assert err.startswith("error: sets do not cover V: missing=[2, 3, 4,")
    assert "(99999999999999999988 more)] extra=[]" in err
    assert len(err.encode()) < 1024 and err.count("\n") == 1


def test_verify_rejects_an_exponent_coordinate_at_once(tmp_path, g8, g8_file, capsys):
    g, p = g8
    text = emit_certificate(recognize(g, p))
    bad = text.replace("coord 0 0 1", "coord 0 1e10000000 1")
    assert bad != text
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(bad)
    assert main(["verify", g8_file, str(cert_path)]) == EXIT_UNDECIDED
    err = capsys.readouterr().err
    assert err.startswith("parse error: line ") and "bad coordinate" in err
    assert err.count("\n") == 1


def test_verify_coprime_denominator_certificate(tmp_path, capsys):
    """A YES certificate at n=130 whose coordinates have pairwise-coprime
    ~1000-digit denominators: verify exits 0, and exits 1 once a
    coordinate line is moved."""
    g, p, cert = coprime_denominator_certificate()
    inst = tmp_path / "inst.txt"
    inst.write_text(emit_instance(g, p))
    text = emit_certificate(cert)
    good = tmp_path / "cert.txt"
    good.write_text(text)
    assert main(["verify", str(inst), str(good)]) == EXIT_YES
    assert capsys.readouterr().out == "certificate ok\n"

    line = next(s for s in text.splitlines() if s.startswith("coord 17 "))
    moved = tmp_path / "moved.txt"
    moved.write_text(text.replace(line, "coord 17 3 3"))
    assert main(["verify", str(inst), str(moved)]) == EXIT_NO
    assert capsys.readouterr().out.startswith("problem: embedding fails on pair ")


def test_missing_file_is_an_error(capsys):
    assert main(["validate", "/nonexistent/path.txt"]) == EXIT_UNDECIDED
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["validate", "x" * 5000],
    ["verify", "x" * 5000, "g8"],
    ["verify", "g8", "x" * 5000],
], ids=["validate", "verify-instance", "verify-certificate"])
def test_long_file_names_are_cut_in_their_error(g8_file, capsys, argv):
    """A file name too long to open is cut like any echoed input: one error
    line of under 600 bytes, exit 2."""
    argv = [g8_file if arg == "g8" else arg for arg in argv]
    assert main(argv) == EXIT_UNDECIDED
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(err.encode()) < 600 and sum("error:" in line for line in lines) == 1
    assert lines[0].startswith("error: [Errno ") and lines[0].endswith(f": {_echo('x' * 5000)}")


@pytest.mark.parametrize("exc", [
    OSError(2, "No such file or directory", "/nonexistent/path.txt"),
    OSError(18, "Invalid cross-device link", "a.txt", None, "b.txt"),
    OSError("no file name"),
    OSError(5, "Input/output error"),
])
def test_short_file_errors_read_as_python_writes_them(exc):
    assert _os_message(exc) == str(exc)


NINES = "9" * 4000


@pytest.mark.parametrize("body, start", [
    (f"n 2\nxa 0\nxb 0\ny 1\nedge 0 {NINES}\n", "error: edge (0,99999"),
    ("n 2\nxa 0\nxb 0\ny 1 " + " ".join(f"{k}{NINES[2:]}" for k in range(10, 21)) + "\n",
     "error: sets do not cover V: missing=[] extra=[10999"),
    (f"n {NINES}\nxa 0\nxb 0\ny 1\n", "error: sets do not cover V: missing=[2, 3, 4,"),
], ids=["edge", "y", "n"])
def test_validate_bounds_long_ids_in_errors(tmp_path, capsys, body, start):
    """4000-digit ids and counts are cut to 40 digits in the message, and a
    cut id ends the list of extra ids."""
    path = tmp_path / "long.txt"
    path.write_text("bab-instance v1\n" + body)
    assert main(["validate", str(path)]) == EXIT_UNDECIDED
    err = capsys.readouterr().err
    assert err.startswith(start), err[:100]
    assert len(err.encode()) < 300 and err.count("\n") == 1
    assert "(3960 more characters)" in err
