"""Command line behavior: exit codes, output formats, piping files around."""

import pytest

from squaregeo import emit_certificate, emit_instance, parse_certificate, recognize
from squaregeo.cli import EXIT_NO, EXIT_UNDECIDED, EXIT_YES, main
from squaregeo.pipeline import NO

from test_necessary import RIGID_FAIL_EDGES
from test_pipeline import NO_CORE_EDGE_EDGES
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
    assert main(["gen", "--sizes", "1,2,1,3", "--density", "0.6", "--seed", "5",
                 "--filter", "sufficient"]) == EXIT_YES
    inst = capsys.readouterr().out
    path = tmp_path / "gen.txt"
    path.write_text(inst)
    assert main(["validate", str(path)]) == EXIT_YES
    capsys.readouterr()
    assert main(["recognize", str(path)]) == EXIT_YES
    assert "verdict: yes" in capsys.readouterr().out


def test_gen_rejects_bad_sizes(capsys):
    assert main(["gen", "--sizes", "1,2,3"]) == EXIT_UNDECIDED
    assert "error: sizes wants exactly four" in capsys.readouterr().err
    assert main(["gen", "--sizes", "a,b,c,d"]) == EXIT_UNDECIDED
    assert "error: sizes wants four integers" in capsys.readouterr().err


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


def test_validate_caps_the_listed_vertices(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("bab-instance v1\nn 300000\nxa 0 1\nxb 1 2\ny 3\n")
    assert main(["validate", str(path)]) == EXIT_UNDECIDED
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024
    assert "missing=[4, 5, 6, 7, 8, 9, 10, 11, 12, 13, … (299986 more)] extra=[]" in err


def test_missing_file_is_an_error(capsys):
    assert main(["validate", "/nonexistent/path.txt"]) == EXIT_UNDECIDED
    assert capsys.readouterr().err.startswith("error:")
