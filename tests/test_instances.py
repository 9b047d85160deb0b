"""Text formats and the random generator."""

from fractions import Fraction

import pytest

from squaregeo import (
    build_chord_graph,
    check_necessary,
    emit_certificate,
    emit_instance,
    generate_bab,
    parse_certificate,
    parse_instance,
    recognize,
    verify_certificate,
)
from squaregeo.errors import GenerationError, ParseError, StructuralError
from squaregeo.graph import bits
from squaregeo.necessary import NecessaryStatus


def test_instance_round_trip(g8):
    g, p = g8
    text = emit_instance(g, p)
    g2, p2 = parse_instance(text)
    assert g2.n == g.n and g2.edges() == g.edges()
    assert (p2.x_a, p2.x_b, p2.y) == (p.x_a, p.x_b, p.y)
    assert emit_instance(g2, p2) == text


def test_instance_text_is_normalized():
    messy = "\n".join(
        [
            "# a comment",
            "bab-instance v1",
            "",
            "n 4",
            "xa 1 0",
            "xb 0 1",
            "  y 3 2  ",
            "edge 0 1",
            "edge 2 3",
            "edge 0 2",
            "edge 1 3",
        ]
    )
    g, p = parse_instance(messy)
    lines = emit_instance(g, p).splitlines()
    assert lines[0] == "bab-instance v1"
    assert lines[2] == "xa 0 1"
    assert lines[4] == "y 2 3"
    assert emit_instance(g, p).endswith("\n")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("bogus v9\nn 1\n", "line 1: expected header"),
        ("bab-instance v1\nn one\n", "line 2: n wants integers"),
        ("bab-instance v1\nn 2 3\n", "line 2: n wants one nonnegative"),
        ("bab-instance v1\nn 4\nxa 0\nxa 1\n", "line 4: duplicate xa"),
        ("bab-instance v1\nn 4\nxa 0\nn 4\n", "line 4: duplicate n line"),
        ("bab-instance v1\nn 4\nedge 0 1 2\n", "line 3: edge wants two"),
        ("bab-instance v1\nn 4\nfoo bar\n", "line 3: unknown keyword 'foo'"),
        ("bab-instance v1\nxa 0\nxb 0\ny 1\n", "missing n"),
        ("bab-instance v1\nn 2\nxa 0\nxb 0\n", "missing y"),
    ],
)
def test_instance_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_instance(text)


def test_instance_parse_checks_structure():
    bad = "bab-instance v1\nn 3\nxa 0 1\nxb 0 1\ny 2\n"
    with pytest.raises(StructuralError, match="not a clique"):
        parse_instance(bad)


def test_certificate_round_trip_keeps_fractions(g8):
    g, p = g8
    cert = recognize(g, p)
    text = emit_certificate(cert)
    back = parse_certificate(text)
    assert back.verdict == cert.verdict and back.route == cert.route
    assert back.order1.seq == cert.order1.seq
    assert back.order2.seq == cert.order2.seq
    assert back.completion1 == cert.completion1
    assert back.completion2 == cert.completion2
    assert back.embedding.coords == cert.embedding.coords
    assert back.embedding.coords[3][0] == Fraction(10, 9)
    assert emit_certificate(back) == text
    assert verify_certificate(g, back).ok


def test_negative_certificate_round_trip(triangle6):
    g, p = triangle6
    cert = recognize(g, p)
    back = parse_certificate(emit_certificate(cert))
    assert back.verdict == "no" and back.route == "necessary"
    assert back.reason == cert.reason
    assert back.order1 is None and back.embedding is None


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("bab-instance v1\n", "line 1: expected header"),
        ("bab-certificate v1\nverdict maybe\n", "unknown verdict 'maybe'"),
        ("bab-certificate v1\nroute x\n", "unknown verdict None"),
        ("bab-certificate v1\nverdict yes\ncompletion1 0;1\n", "line 3: bad pair '0;1'"),
        ("bab-certificate v1\nverdict yes\ncoord 0 1\n", "line 3: coord wants"),
        ("bab-certificate v1\nverdict yes\ncoord 0 a b\n", "line 3: bad coordinate"),
        ("bab-certificate v1\nverdict yes\ncoord 0 1e10000000 0\n", "line 3: bad coordinate"),
        ("bab-certificate v1\nverdict yes\ncoord 0 0.5 0\n", "line 3: bad coordinate"),
        ("bab-certificate v1\nverdict yes\ncoord 1 0 0\n", "do not cover"),
        ("bab-certificate v1\nverdict yes\nshrug\n", "line 3: unknown keyword"),
        ("bab-certificate v1\nverdict no\nverdict yes\n", "line 3: duplicate verdict line"),
        ("bab-certificate v1\nverdict no\nroute a\nroute b\n", "line 4: duplicate route line"),
        ("bab-certificate v1\nverdict no\nreason a\n\nreason b\n", "line 5: duplicate reason line"),
        ("bab-certificate v1\nverdict yes\norder1 0 1\norder1 1 0\n", "line 4: duplicate order1 line"),
        ("bab-certificate v1\nverdict yes\norder2 0\norder2 0\n", "line 4: duplicate order2 line"),
        ("bab-certificate v1\nverdict yes\ncompletion1\ncompletion1 0,1\n", "line 4: duplicate completion1"),
        ("bab-certificate v1\nverdict yes\ncompletion2 0,1\ncompletion2\n", "line 4: duplicate completion2"),
        ("bab-certificate v1\nverdict yes\ncoord 0 0 0\ncoord 0 1 1\n", "line 4: duplicate coord line for vertex 0"),
    ],
)
def test_certificate_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_certificate(text)


def test_generator_is_deterministic():
    a = generate_bab((1, 2, 1, 3), 0.5, 7)
    b = generate_bab((1, 2, 1, 3), 0.5, 7)
    assert a[0].edges() == b[0].edges()
    assert (a[1].x_a, a[1].x_b, a[1].y) == (b[1].x_a, b[1].x_b, b[1].y)
    c = generate_bab((1, 2, 1, 3), 0.5, 8)
    assert a[0].edges() != c[0].edges()


def test_generator_block_layout():
    g, p = generate_bab((2, 1, 2, 2), 0.5, 0)
    assert list(bits(p.x_a)) == [0, 1, 2]
    assert list(bits(p.x_b)) == [2, 3, 4]
    assert list(bits(p.y)) == [5, 6]
    assert g.n == 7


def test_generator_density_extremes():
    g_full, p = generate_bab((1, 2, 1, 3), 1.0, 3)
    xs = list(bits(p.x_a | p.x_b))
    assert all(g_full.adjacent(x, y) for x in xs for y in bits(p.y))
    g_empty, p = generate_bab((1, 2, 1, 3), 0.0, 3)
    assert not any(g_empty.adjacent(x, y) for x in xs for y in bits(p.y))


def test_generator_filters():
    g, p = generate_bab((1, 2, 1, 3), 0.5, 11, filter="assumption1")
    nec = check_necessary(g, p, build_chord_graph(g, p))
    assert nec.status is not NecessaryStatus.OUT_OF_SCOPE

    g, p = generate_bab((1, 2, 1, 3), 0.5, 11, filter="sufficient")
    cert = recognize(g, p)
    assert cert.verdict == "yes"
    assert verify_certificate(g, cert).ok


def test_generator_rejects_bad_requests():
    with pytest.raises(GenerationError, match="nonempty"):
        generate_bab((1, 0, 1, 3), 0.5, 0)
    with pytest.raises(GenerationError, match="unknown filter"):
        generate_bab((1, 1, 1, 1), 0.5, 0, filter="best")


def test_generator_gives_up_at_cap():
    """A single shared vertex cannot carry the order construction, so the
    sufficient filter exhausts its attempts."""
    with pytest.raises(GenerationError, match="within 50 attempts"):
        generate_bab((2, 1, 2, 3), 0.5, 1, filter="sufficient", max_attempts=50)
