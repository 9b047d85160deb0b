"""Text formats and the random generator."""

import ast
import collections
import hashlib
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest

from squaregeo import (
    emit_certificate,
    emit_instance,
    generate_bab,
    instances,
    parse_certificate,
    parse_instance,
    recognize,
    verify_certificate,
)
from squaregeo.errors import GenerationError, InputError, ParseError, ScopeError, StructuralError, _echo
from squaregeo.graph import bits
from squaregeo.instances import INSTANCE_HEADER, _PAIR_LINE, _coordinate, _pair_mask, _parse_pairs

from oracles import (
    coordinate_by_fraction_string,
    mask_of_pairs,
    mask_of_pairs_by_bytes,
    pair_mask_by_set,
    parse_instance_by_lines,
    parse_pairs_by_set,
    parse_pairs_by_tokens,
    planted_bab,
)


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


MEGABYTE = "9" * 1_000_000


@pytest.mark.parametrize(
    "parse, text, fragment",
    [
        (parse_instance, f"bab-instance v1\nn 4\nxa 0 {MEGABYTE}x\n", "line 3: xa wants integers, got '0 999"),
        (parse_instance, f"bab-instance v1\nn 4\nk{MEGABYTE} 1\n", "line 3: unknown keyword 'k999"),
        (parse_certificate, f"bab-certificate v1\nverdict yes\ncompletion1 0,{MEGABYTE}x\n", "line 3: bad pair '0,999"),
        (parse_certificate, f"bab-certificate v1\nverdict yes\ncoord 0 1 {MEGABYTE}.5\n", "line 3: bad coordinate in '0 1 999"),
        (parse_certificate, f"bab-certificate v1\nverdict {MEGABYTE}\n", "line 1: missing or unknown verdict '999"),
    ],
)
def test_parse_error_echoes_a_bounded_field(parse, text, fragment):
    """A one-megabyte field is echoed as a short prefix and a count."""
    with pytest.raises(ParseError) as caught:
        parse(text)
    message = str(caught.value)
    assert message.startswith(fragment)
    assert len(message) < 200
    assert "more characters)" in message


def _outcome(parse, text):
    """The graph and partition, or the exception type and message."""
    try:
        return parse(text)
    except Exception as e:
        return type(e), str(e)


def _reference_outcome(text):
    """The reference's outcome, with its echoed input field, the quoted
    tail of a parse error, bounded as parse_instance bounds it."""
    outcome = _outcome(parse_instance_by_lines, text)
    if outcome[0] is ParseError:
        head, field = re.fullmatch(r"(.*?)('.*'|\".*\")?", outcome[1], re.S).groups()
        if field:
            outcome = ParseError, head + _echo(ast.literal_eval(field))
    return outcome


HOSTILE = ["+1", "-1", "\u0663", "1_0", "0x1", "1.0", "", "x", "edge", "\t", "01", "3 3", "0 99", "#"]
BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


def _mutate(text: str, rng: random.Random) -> str:
    """One to three random edits of an instance text: hostile tokens,
    deleted, duplicated or swapped lines, blank, comment and stray lines,
    odd blanks and line breaks, 19-digit ids."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        j = rng.randrange(len(lines))
        kind = rng.randrange(11)
        if kind == 0:
            toks = lines[j].split(" ")
            toks[rng.randrange(len(toks))] = rng.choice(HOSTILE)
            lines[j] = " ".join(toks)
        elif kind == 1:
            del lines[j]
        elif kind == 2:
            lines.insert(j, lines[j])
        elif kind == 3:
            k = rng.randrange(len(lines))
            lines[j], lines[k] = lines[k], lines[j]
        elif kind == 4:
            lines.insert(j, rng.choice(["", "   ", "# note", "#edge 0 1", "edge 0 1", "edge 1 0"]))
        elif kind == 5:
            lines[j] = rng.choice(["x", " ", "\t", "#"]) + lines[j]
        elif kind == 6:
            lines[j] = lines[j].replace(" ", rng.choice(["  ", "\t", " \t"]), 1) + rng.choice(["", " "])
        elif kind == 7:
            lines[j] = lines[j] + rng.choice(BREAKS)
        elif kind == 8:
            toks = lines[j].split(" ")
            toks[rng.randrange(len(toks))] = rng.choice(["1" * 19, "9" * 18, "0" * 18 + "5"])
            lines[j] = " ".join(toks)
        elif kind == 9:
            lines.insert(0, "edge 0 1")
        else:
            lines.append(rng.choice(["# trailing comment", "edge 0 1", "n 3"]))
    out = "\n".join(lines)
    if rng.random() < 0.1:
        out = out.replace("\n", "\r\n")
    if rng.random() < 0.1:
        out = out.rstrip("\n")
    return out


def test_parse_matches_the_line_reference():
    """parse_instance agrees with the line-by-line parser it replaced, on
    seeded instances, random edits of them and over-long ids: equal graph
    and partition, or an equal exception type and message."""
    bases = [emit_instance(*generate_bab(shape, 0.5, seed)) for shape in ((1, 2, 1, 3), (3, 3, 3, 6)) for seed in range(4)]
    bases.append(emit_instance(*generate_bab((20, 20, 20, 40), 0.5, 0)))
    lines = bases[-1].split("\n")
    assert len(lines) == 3345  # 3344 lines, several runs of canonical lines
    # ids too long for a run; 5000 digits is beyond Python's int digit limit
    long_ids = [
        "\n".join(lines[:j] + [f"edge {'7' * digits} {j % 100}"] + lines[j + 1:])
        for j in (30, 1500, 3000)
        for digits in (19, 5000)
    ]
    rng = random.Random(0)
    kinds = set()
    for base in bases:
        texts = [base, base.rstrip("\n")] + [_mutate(base, rng) for _ in range(120)]
        if base is bases[-1]:
            texts += long_ids
        for text in texts:
            want = _reference_outcome(text)
            assert _outcome(parse_instance, text) == want, text[:300]
            kinds.add(want[0] if isinstance(want[0], type) else "ok")
            if want[0] is ParseError and int(re.match(r"line (\d+)", want[1])[1]) > 2000:
                kinds.add("late error")
    assert kinds == {"ok", ParseError, InputError, StructuralError, ScopeError, "late error"}


# Respellings of a canonical text, and how parse_instance reads each: by
# rows as it stands, by rows and then again as lists of ids, or as lists of
# ids from the start.
RESPELLINGS = {
    "swapped": "ids again", "shuffled": "ids again", "reversed": "ids again",
    "repeated": "ids again", "self loop": "ids again", "out of range": "ids again",
    "padded u": "ids again", "padded v": "ids again",
    "comment": "rows", "double blank": "rows", "crlf": "ids",
}


def _respell(text: str, kind: str, rng: random.Random) -> str:
    """``text``, canonical, with its edge lines respelled as ``kind`` says.
    The edits of one line land inside a run, between two lines of one u."""
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    lines = text.split("\n")
    first = next(j for j, line in enumerate(lines) if line.startswith("edge "))
    head, edges = lines[:first], lines[first:-1]
    n = int(lines[1].split()[1])
    if kind == "swapped":
        edges = [re.sub(r"^edge (\d+) (\d+)$", r"edge \2 \1", e) for e in edges]
    elif kind == "shuffled":
        rng.shuffle(edges)
    elif kind == "reversed":
        edges.reverse()
    else:
        # a self loop goes into row 3n/4 (150 at n=200), an id out of range into row 3
        row = {"self loop": str(n * 3 // 4), "out of range": "3"}.get(kind)
        us = [e.split()[1] for e in edges]
        j = rng.choice([j for j in range(1, len(edges)) if us[j] == us[j - 1] and row in (None, us[j])])
        u, v = edges[j].split()[1:]
        edit = {
            "repeated": [edges[j], edges[j]], "self loop": [f"edge {u} {u}", edges[j]],
            "out of range": [f"edge {u} {n}", edges[j]], "padded u": [f"edge 0{u} {v}"],
            "padded v": [f"edge {u} 0{v}"], "comment": ["# note", edges[j]], "double blank": ["", "", edges[j]],
        }
        edges[j:j + 1] = edit[kind]
    return "\n".join(head + edges + [""])


def test_row_kernel_matches_the_line_reference(monkeypatch):
    """Planted and generated instances of n = 70 to 200 are read by rows,
    and so are their respellings that keep every run canonical; the others
    are read as lists of ids, again or from the start (``RESPELLINGS``).
    Every one gives the line-by-line reference's graph and partition, or
    its exception and message, self loops and ids out of range included."""
    calls = collections.Counter()
    fields, build = instances._instance_fields, instances.build_graph

    def counted_fields(text, scan):
        calls["rows pass" if scan is instances._EDGE_ROWS else "ids pass"] += 1
        return fields(text, scan)

    def counted_build(n, edges):
        calls["build_graph"] += 1
        return build(n, edges)

    monkeypatch.setattr(instances, "_instance_fields", counted_fields)
    monkeypatch.setattr(instances, "build_graph", counted_build)
    bases = [emit_instance(*planted_bab(sizes, seed))
             for sizes, seed in (((10, 14, 10, 36), 1), ((16, 22, 16, 56), 2), ((30, 40, 30, 100), 3))]
    bases += [emit_instance(*generate_bab(sizes, 0.5, seed))
              for sizes, seed in (((10, 14, 10, 36), 4), ((30, 40, 30, 100), 0))]
    rng = random.Random(30)
    ways = collections.defaultdict(set)
    outcomes = collections.Counter()
    for base in bases:
        for kind in ("base", *RESPELLINGS):
            text = base if kind == "base" else _respell(base, kind, rng)
            assert text != base or kind == "base"
            calls.clear()
            got = _outcome(parse_instance, text)
            assert got == _reference_outcome(text), (kind, text[:300])
            way = {(1, 0): "rows", (1, 1): "ids again", (0, 1): "ids"}[calls["rows pass"], calls["ids pass"]]
            assert (way == "rows") == (calls["build_graph"] == 0), kind
            ways[kind].add(way)
            outcomes[kind, got[0] if isinstance(got[0], type) else "ok"] += 1
    assert ways == {"base": {"rows"}, **{kind: {way} for kind, way in RESPELLINGS.items()}}
    assert {kind for kind, result in outcomes if result != "ok"} == {"self loop", "out of range"}
    assert outcomes["self loop", InputError] == outcomes["out of range", InputError] == len(bases)


class IntPerToken(dict):
    """A stand-in for the parse calls' id memo that stores nothing: every
    lookup is ``int(tok)``, as each id was read before the memo."""

    __missing__ = int


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


def _edit_ids(text: str, rng: random.Random) -> str:
    """One to three ids of a text, past its header, replaced by another id
    of the text, the same id with leading zeros (007, or 19 digits) or in
    Arabic-Indic digits, a 19-digit id or a 5000-digit id."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        spots = [(j, m) for j, line in enumerate(lines[1:], 1) for m in re.finditer(r"[0-9]+", line)]
        if not spots:
            break
        j, m = rng.choice(spots)
        tok = m[0]
        new = rng.choice([
            rng.choice(spots)[1][0], rng.choice(spots)[1][0], "00" + tok, tok.zfill(19),
            tok.translate(ARABIC_INDIC), "1" * 19, "7" * 5000,
        ])
        lines[j] = lines[j][:m.start()] + new + lines[j][m.end():]
    return "\n".join(lines)


def test_id_memo_reads_what_int_reads(monkeypatch, c4, g8, disconnected7, triangle6):
    """Each parse call reads its ids through one memo. On 1,200 instance
    and certificate texts with ids repeated, zero-padded, in Arabic-Indic
    digits (read line by line), of 19 digits or of 5000, both parsers give
    what they give when every id token goes through ``int`` anew: the same
    values or the same ParseError text. Instances also agree with the line
    parser."""
    rng = random.Random(16)
    instance_texts = [emit_instance(*generate_bab(shape, 0.5, seed))
                      for shape in ((1, 2, 1, 3), (2, 2, 2, 4)) for seed in range(3)]
    certs = [recognize(*c4), recognize(*g8), recognize(*triangle6),
             recognize(*disconnected7, allow_oracle=True, oracle_bound=7)]
    certs += [recognize(*generate_bab((1, 2, 1, 3), 0.5, seed), allow_oracle=True, oracle_bound=7)
              for seed in range(4)]
    cert_texts = [emit_certificate(cert) for cert in certs]
    assert {cert.verdict for cert in certs} == {"yes", "no"}

    def both(parse, text):
        got = _outcome(parse, text)
        with monkeypatch.context() as m:
            m.setattr(instances, "_IntMemo", IntPerToken)
            assert _outcome(parse, text) == got, text[:300]
        return got

    kinds = collections.Counter()
    for k in range(600):
        text = _edit_ids(instance_texts[k % len(instance_texts)], rng)
        got = both(parse_instance, text)
        assert got == _reference_outcome(text), text[:300]
        kinds["instance", got[0] if isinstance(got[0], type) else "ok"] += 1
    for k in range(600):
        text = _edit_ids(cert_texts[k % len(cert_texts)], rng)
        got = both(parse_certificate, text)
        kinds["certificate", got[0] if isinstance(got, tuple) else "ok"] += 1
    assert kinds["instance", ParseError] > 50 and kinds["certificate", ParseError] > 50, kinds
    assert kinds["instance", "ok"] > 50 and kinds["certificate", "ok"] > 50, kinds


def test_parse_peak_memory():
    """The largest benchmark instance (n=200, 12,061 lines) parses with a
    traced peak below 1.5 MB: no token list or tuple is kept per edge line."""
    text = emit_instance(*generate_bab((60, 20, 60, 60), 0.5, 0))
    tracemalloc.start()
    try:
        parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000


def test_instance_without_clique_edges_parses_in_small_memory():
    """An instance of n=20,000 that lists every id and no edge (109 KB of
    text) is refused with its first missing clique edge at a traced peak
    below 6 MB: an edge list too short to fill the cliques builds no table
    of single-bit masks, which would hold n*n/2 bits (25 MB), and the id
    memo is gone before the graph is built."""
    n = 20_000
    text = f"{INSTANCE_HEADER}\nn {n}\nxa {' '.join(map(str, range(n - 1)))}\nxb 0\ny {n - 1}\n"
    tracemalloc.start()
    try:
        with pytest.raises(StructuralError) as exc:
            parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "X_a is not a clique: missing edge (0,1)"
    assert peak < 6_000_000


@pytest.mark.parametrize("side", [128, 512])
def test_row_kernel_peak_memory(monkeypatch, side):
    """The texts that cost the row kernel the most memory per character:
    for each length, the largest n whose bit matrix it lets in. At 8,192
    characters, the shortest text read by rows, that is n=128; at 131,072
    it is n=512. The edges fill rows 2, 3, ... and leave out the clique
    edge (0,1). Above what the parse held when the kernel began, the
    kernel's traced peak stays under four times the text's size, the
    multiple ``_graph_of_rows`` states; the parse then refuses the text."""
    n = side
    text = f"{INSTANCE_HEADER}\nn {n}\nxa {' '.join(map(str, range(n - 1)))}\nxb 0\ny {n - 1}\n"
    edges = (f"edge {u} {v}\n" for u in range(2, n) for v in range(u + 1, n))
    while len(text) < side * side // 2:
        text += next(edges)
    assert instances._row_side(n, len(text)) == side and instances._row_side(n + 1, len(text)) == 0
    kernel, peaks = instances._graph_of_rows, []

    def traced(*args):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        g = kernel(*args)
        peaks.append((g is not None, tracemalloc.get_traced_memory()[1] - start))
        return g

    monkeypatch.setattr(instances, "_graph_of_rows", traced)
    tracemalloc.start()
    try:
        with pytest.raises(StructuralError) as exc:
            parse_instance(text)
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "X_a is not a clique: missing edge (0,1)"
    [(read, peak)] = peaks
    assert read and peak < 4 * len(text), (peak, len(text))


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
    assert back.order1 == cert.order1
    assert back.order2 == cert.order2
    assert back.completion1 == cert.completion1
    assert back.completion2 == cert.completion2
    assert back.embedding == cert.embedding
    assert back.embedding[3][0] == Fraction(10, 9)
    assert emit_certificate(back) == text
    assert verify_certificate(g, back).ok


def test_negative_certificate_round_trip(triangle6):
    g, p = triangle6
    cert = recognize(g, p)
    back = parse_certificate(emit_certificate(cert))
    assert back.verdict == "no" and back.route == "necessary"
    assert back.reason == cert.reason
    assert back.order1 is None and back.embedding is None


def test_every_certificate_field_round_trips(c4, g8, disconnected7, triangle6):
    """A certificate holds exactly what its text holds: parsing the emitted
    text gives back an equal certificate, on YES by construction, YES by the
    oracle and NO."""
    certs = [
        recognize(*c4),
        recognize(*g8),
        recognize(*disconnected7, allow_oracle=True, oracle_bound=7),
        recognize(*triangle6),
    ]
    assert [(c.verdict, c.route) for c in certs] == [
        ("yes", "sufficient"), ("yes", "sufficient"), ("yes", "oracle"), ("no", "necessary"),
    ]
    for cert in certs:
        assert parse_certificate(emit_certificate(cert)) == cert


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
        ("bab-certificate v1\nverdict yes\ncompletion1 0,1\n", "line 3: pair 0,1 is not u < v among the 0 vertices"),
        ("bab-certificate v1\nverdict yes\ncompletion2 0,2\norder1 1 0\n", "line 3: pair 0,2 is not u < v among the 2 "),
    ],
)
def test_certificate_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_certificate(text)


def _read_coordinate(read, tok):
    """The coordinate, or the type of the exception reading it raised."""
    try:
        return read(tok)
    except (ValueError, ZeroDivisionError) as e:
        return type(e)


def _token_id(tok: str) -> str:
    return ascii(tok) if len(tok) <= 12 else f"{len(tok)}-chars"


@pytest.mark.parametrize(
    "tok", ["2/4", "-0", "-7/3", "0", "17", "-12", "007", "3/1", "-0/5", "9" * 4000], ids=_token_id
)
def test_coordinate_equals_the_fraction_string(tok):
    got = _coordinate(tok)
    assert type(got) is Fraction and got == Fraction(tok) == coordinate_by_fraction_string(tok)


# a 5000-digit numerator passes the regex; the int conversion limit, on by
# default since Python 3.10.7 / 3.11, refuses it
HUGE_NUMERATOR = "7" * 5000 + "/3"
INT_DIGITS_LIMITED = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000


@pytest.mark.parametrize(
    "tok",
    ["0/0", "5/0", "1e5", "+1", "1_0", "0.5", "\u0663", "\u0661/\u0662", "1/-2", "1/2/3", "/2", HUGE_NUMERATOR],
    ids=_token_id,
)
def test_coordinate_rejects_what_the_fraction_string_reader_rejected(tok):
    """Same exception type as the reader that handed the whole token to
    ``Fraction(tok)``, and the same ParseError inside a certificate."""
    want = _read_coordinate(coordinate_by_fraction_string, tok)
    assert _read_coordinate(_coordinate, tok) == want
    rest = f"0 {tok} 1"
    text = f"bab-certificate v1\nverdict yes\ncoord {rest}\n"
    if tok == HUGE_NUMERATOR and not INT_DIGITS_LIMITED:
        assert parse_certificate(text).embedding[0][0] == want
        return
    assert want in (ValueError, ZeroDivisionError)
    with pytest.raises(ParseError) as caught:
        parse_certificate(text)
    assert str(caught.value) == f"line 3: bad coordinate in {_echo(rest)}"


def _pair_body(rng: random.Random) -> str:
    """A completion body of pairs u < v among 0..60: canonical, or canonical
    with one hostile edit."""
    pairs = sorted({tuple(sorted(rng.sample(range(61), 2))) for _ in range(rng.randint(0, 40))})
    toks = [f"{u},{v}" for u, v in pairs]
    if toks and rng.random() < 0.6:
        k = rng.randrange(len(toks))
        toks[k] = rng.choice([
            "0," + "9" * 18, "0," + "9" * 19, "1" * 19 + ",0", "007,08", "1,2,3", "1,", ",1", "1",
            "-1,2", "+1,2", "1, 2", "1,\u0663", "\u0663,1", "1_0,2", "1;2", toks[k] + "x", "0x1,2",
            "0," + "7" * 5000, "0" * 17 + "5,6", toks[k - 1], "5,5", "9,3", "3,61",
        ])
    sep = "  " if toks and rng.random() < 0.1 else " "
    return sep.join(toks)


def test_parse_pairs_matches_the_token_loop():
    """Canonical bodies take the bulk path, every other body the loop; both
    give the pair mask of the token loop's pairs over 61 vertices, or the
    exact ParseError of the token loop and the set path before it. Bodies
    past the bulk cap of 8192 pairs go token by token; the cap bodies are
    read over 8194 vertices, enough for their ids, so each gives the mask
    of all its pairs. All bodies share one id memo, as the lines of one
    certificate do, so later bodies read ids an earlier one converted; a
    5000-digit id reads as ``int`` reads it."""
    rng = random.Random(5)
    bodies = [_pair_body(rng) for _ in range(3000)]
    kinds = collections.Counter()
    ints = instances._IntMemo()
    for rest in bodies:
        want = _outcome(lambda r: pair_mask_by_set(7, parse_pairs_by_tokens(7, r), 61), rest)
        if type(want) is int:
            pairs = parse_pairs_by_tokens(7, rest)
            assert want == mask_of_pairs(pairs, 61) == mask_of_pairs_by_bytes(pairs, 61)
        assert _outcome(lambda r: _pair_mask(7, _parse_pairs(7, r, ints), 61), rest) == want
        kinds[type(want), bool(_PAIR_LINE.fullmatch(rest))] += 1
    assert set(kinds) == {(int, True), (int, False), (tuple, True), (tuple, False)}
    assert kinds[int, True] > 1000
    # shifting 8192 rows of up to 8194**2 bits into a mask one at a time
    # takes seconds, so the cap bodies' reference sets bits in a bytearray
    for k, bulk in ((8192, True), (8193, False)):
        rest = " ".join(f"{i},{i + 1}" for i in range(k))
        assert bool(_PAIR_LINE.fullmatch(rest)) is bulk
        got = _pair_mask(7, _parse_pairs(7, rest, ints), 8194)
        assert got == mask_of_pairs_by_bytes(parse_pairs_by_tokens(7, rest), 8194)
        assert got.bit_count() == k
    rest = " ".join(f"{i},{i + 1}" for i in range(9000)) + " 5,x"
    want = _outcome(lambda r: parse_pairs_by_tokens(7, r), rest)
    assert want == (ParseError, "line 7: bad pair '5,x'")
    assert _outcome(lambda r: _pair_mask(7, _parse_pairs(7, r, ints), 9002), rest) == want


RANGE_BODIES = {
    "v=n": "0,6",
    "v=n-late": "0,1 2,6",
    "v>n-last": "0,1 1,2 5,9",
    "v>>n": "0,99",
    "u>v": "3,2",
    "u=v-late": "0,1 4,4",
    "u=v": "5,5",
    "all-u>v": "1,0 2,1 3,2",
    "18-digit-pair": "0,1 " + "9" * 18 + "," + "9" * 18,
    "18-digit-v": "0," + "9" * 18,
    "18-digit-u": "9" * 18 + ",0",
    "18-digit-first": "1" * 18 + ",2 0,1",
    "all-v>=n": "0,7 1,8 2,9 3,10 4,11 5,12",
    # the set's order names 3,3 here, and 4,0 in the two grids: not the
    # first bad pair of the text
    "mixed": "2,1 0,6 3,3 4,5",
    "grid-6x8": " ".join(f"{u},{v}" for u in range(6) for v in range(8)),
    "grid-8x6": " ".join(f"{u},{v}" for u in range(8) for v in range(6)),
    "repeats": "0,1 0,1 0,1 6,0",
}


@pytest.mark.parametrize("rest", RANGE_BODIES.values(), ids=RANGE_BODIES.keys())
def test_pair_range_error_is_the_set_paths(rest):
    """A canonical body with pairs not u < v among 6 vertices (v >= n,
    u > v, u == v, 18-digit ids, several bad pairs at once) raises the
    byte-identical ParseError of the frozenset path before rows."""
    assert _PAIR_LINE.fullmatch(rest)
    with pytest.raises(ParseError) as want:
        pair_mask_by_set(7, parse_pairs_by_set(7, rest, instances._IntMemo()), 6)
    with pytest.raises(ParseError) as got:
        _pair_mask(7, _parse_pairs(7, rest, instances._IntMemo()), 6)
    assert str(got.value) == str(want.value)
    text = f"bab-certificate v1\nverdict yes\norder1 0 1 2 3 4 5\ncompletion1 {rest}\n"
    with pytest.raises(ParseError) as whole:
        parse_certificate(text)
    assert str(whole.value) == str(want.value).replace("line 7", "line 4", 1)


def test_generator_is_deterministic():
    a = generate_bab((1, 2, 1, 3), 0.5, 7)
    b = generate_bab((1, 2, 1, 3), 0.5, 7)
    assert a[0].edges() == b[0].edges()
    assert (a[1].x_a, a[1].x_b, a[1].y) == (b[1].x_a, b[1].x_b, b[1].y)
    c = generate_bab((1, 2, 1, 3), 0.5, 8)
    assert a[0].edges() != c[0].edges()


@pytest.mark.parametrize("args, digest", [
    (((3, 4, 3, 8), 0.5, 7), "fd8ca0a568002a9e2a620b5af7fce30cf7d689cdbea5a721888121bd18d6922b"),
    (((1, 2, 1, 3), 0.3, 11), "e0c60ef5d717d2026ce57c1b7253b75cc199913f9c750311c0f7ad21b1111769"),
    (((1, 2, 1, 3), 0.0, 3), "e598fcc8653f48caa68d138409751f5873be55216b885cbe78c04e2c5df70245"),
    (((1, 2, 1, 3), 1.0, 3), "12271d894bd2aa8e369615f3d10b0296547e15ef7dcd194b0b3d013aa16cbe5d"),
    (((0, 1, 2, 4), 0.6, 2), "3c178fe4f581bdb80b5b47b44ca5754e82bb541837574720e2919fad07459343"),
])
def test_generator_bytes_are_pinned(args, digest):
    """The generator's output keeps the bytes recorded when it still drew
    under a rejection-sampling loop, so benchmark corpora and ``gen``
    seeds stay what they were."""
    text = emit_instance(*generate_bab(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


def test_generator_rejects_bad_requests():
    with pytest.raises(GenerationError, match="nonempty"):
        generate_bab((1, 0, 1, 3), 0.5, 0)
