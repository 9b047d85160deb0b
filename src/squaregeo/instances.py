"""Text formats for instances and certificates, plus a random generator.

Both formats are line oriented and byte stable: emitting a parsed file
reproduces the file after normalization (sorted sets, single spaces, one
trailing newline). Coordinates are written as exact fractions, never
decimals.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from .chords import build_chord_graph
from .embedding import Embedding
from .errors import GenerationError, ParseError
from .graph import BabPartition, Graph, bits, build_graph, check_cover, validate_bab
from .necessary import NecessaryStatus, check_necessary
from .orders import LinearOrder, check_sufficient
from .pipeline import NO, UNDECIDED, YES, Certificate

INSTANCE_HEADER = "bab-instance v1"
CERTIFICATE_HEADER = "bab-certificate v1"
_COORDINATE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _content_lines(text: str):
    """Pairs (line number, stripped line), skipping blanks and # comments."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield i, line


def _int_fields(i: int, rest: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in rest.split()]
    except ValueError:
        raise ParseError(f"line {i}: {what} wants integers, got {rest!r}") from None


def parse_instance(text: str) -> tuple[Graph, BabPartition]:
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != INSTANCE_HEADER:
        where = lines[0][0] if lines else 1
        raise ParseError(f"line {where}: expected header {INSTANCE_HEADER!r}")
    n = None
    sets: dict[str, list[int] | None] = {"xa": None, "xb": None, "y": None}
    edges: list[tuple[int, int]] = []
    for i, line in lines[1:]:
        key, _, rest = line.partition(" ")
        if key == "n":
            if n is not None:
                raise ParseError(f"line {i}: duplicate n line")
            vals = _int_fields(i, rest, "n")
            if len(vals) != 1 or vals[0] < 0:
                raise ParseError(f"line {i}: n wants one nonnegative integer")
            n = vals[0]
        elif key in sets:
            if sets[key] is not None:
                raise ParseError(f"line {i}: duplicate {key} line")
            sets[key] = _int_fields(i, rest, key)
        elif key == "edge":
            vals = _int_fields(i, rest, "edge")
            if len(vals) != 2:
                raise ParseError(f"line {i}: edge wants two vertex ids")
            edges.append((vals[0], vals[1]))
        else:
            raise ParseError(f"line {i}: unknown keyword {key!r}")
    if n is None:
        raise ParseError(f"line {lines[-1][0]}: missing n line")
    for key, val in sets.items():
        if val is None:
            raise ParseError(f"line {lines[-1][0]}: missing {key} line")
    # the ids are checked against n before anything of size n is allocated
    check_cover(n, *(frozenset(sets[key]) for key in ("xa", "xb", "y")))
    g = build_graph(n, edges)
    p = validate_bab(g, sets["xa"], sets["xb"], sets["y"])
    return g, p


def emit_instance(g: Graph, p: BabPartition) -> str:
    out = [INSTANCE_HEADER, f"n {g.n}"]
    for key, part in (("xa", p.x_a), ("xb", p.x_b), ("y", p.y)):
        out.append(key + " " + " ".join(map(str, bits(part))))
    for u, v in g.edges():
        out.append(f"edge {u} {v}")
    return "\n".join(out) + "\n"


def _coordinate(tok: str) -> Fraction:
    """A coordinate in a form ``emit_certificate`` writes, an integer or a
    fraction; anything else raises ValueError. Fraction() alone would also
    take exponents, and "1e10000000" would build a ten-million-digit
    integer."""
    if not _COORDINATE.fullmatch(tok):
        raise ValueError(f"bad coordinate {tok!r}")
    return Fraction(tok)


def _emit_pairs(key: str, pairs) -> str:
    body = " ".join(f"{u},{v}" for u, v in sorted(pairs))
    return f"{key} {body}" if body else key


def _parse_pairs(i: int, rest: str) -> frozenset[tuple[int, int]]:
    pairs = []
    for tok in rest.split():
        left, _, right = tok.partition(",")
        try:
            pairs.append((int(left), int(right)))
        except ValueError:
            raise ParseError(f"line {i}: bad pair {tok!r}") from None
    return frozenset(pairs)


def emit_certificate(cert: Certificate) -> str:
    out = [CERTIFICATE_HEADER, f"verdict {cert.verdict}", f"route {cert.route}"]
    if cert.reason:
        out.append(f"reason {cert.reason}")
    if cert.verdict == YES:
        out.append("order1 " + " ".join(map(str, cert.order1.seq)))
        out.append("order2 " + " ".join(map(str, cert.order2.seq)))
        out.append(_emit_pairs("completion1", cert.completion1))
        out.append(_emit_pairs("completion2", cert.completion2))
        for v, (x, y) in enumerate(cert.embedding.coords):
            out.append(f"coord {v} {x} {y}")
    return "\n".join(out) + "\n"


def parse_certificate(text: str) -> Certificate:
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != CERTIFICATE_HEADER:
        where = lines[0][0] if lines else 1
        raise ParseError(f"line {where}: expected header {CERTIFICATE_HEADER!r}")
    fields: dict[str, object] = {}
    coords: dict[int, tuple[Fraction, Fraction]] = {}
    for i, line in lines[1:]:
        key, _, rest = line.partition(" ")
        if key in fields:
            raise ParseError(f"line {i}: duplicate {key} line")
        if key in ("verdict", "route", "reason"):
            fields[key] = rest
        elif key in ("order1", "order2"):
            seq = _int_fields(i, rest, key)
            if sorted(seq) != list(range(len(seq))):
                raise ParseError(f"line {i}: {key} is not a permutation of 0..{len(seq) - 1}")
            fields[key] = LinearOrder.from_seq(seq)
        elif key in ("completion1", "completion2"):
            fields[key] = _parse_pairs(i, rest)
        elif key == "coord":
            toks = rest.split()
            if len(toks) != 3:
                raise ParseError(f"line {i}: coord wants vertex x y")
            try:
                v, xy = int(toks[0]), (_coordinate(toks[1]), _coordinate(toks[2]))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"line {i}: bad coordinate in {rest!r}") from None
            if v in coords:
                raise ParseError(f"line {i}: duplicate coord line for vertex {v}")
            coords[v] = xy
        else:
            raise ParseError(f"line {i}: unknown keyword {key!r}")
    verdict = fields.get("verdict")
    if verdict not in (YES, NO, UNDECIDED):
        raise ParseError(f"line 1: missing or unknown verdict {verdict!r}")
    embedding = None
    if coords:
        if sorted(coords) != list(range(len(coords))):
            raise ParseError("line 1: coord lines do not cover 0..n-1")
        embedding = Embedding(coords=tuple(coords[v] for v in range(len(coords))))
    return Certificate(
        verdict=verdict,
        route=fields.get("route", ""),
        reason=fields.get("reason", ""),
        order1=fields.get("order1"),
        order2=fields.get("order2"),
        completion1=fields.get("completion1"),
        completion2=fields.get("completion2"),
        embedding=embedding,
    )


def generate_bab(
    sizes: tuple[int, int, int, int],
    density: float,
    seed: int,
    filter: str = "none",
    max_attempts: int = 200,
) -> tuple[Graph, BabPartition]:
    """Random instance with the given block sizes (private a, shared,
    private b, y) and X-Y edge density. Deterministic per seed.

    filter "assumption1" keeps only instances passing the structural audit;
    "sufficient" keeps only instances satisfying every order-construction
    condition (the construction outcome itself is not consulted). Rejection
    sampling, so a generation error is raised once the attempt cap is hit.
    """
    a_size, shared_size, b_size, y_size = sizes
    if shared_size < 1 or y_size < 1:
        raise GenerationError("shared part and y part must be nonempty")
    if min(a_size, b_size) < 0:
        raise GenerationError("negative block size")
    if filter not in ("none", "assumption1", "sufficient"):
        raise GenerationError(f"unknown filter {filter!r}")
    rng = random.Random(seed)
    n = a_size + shared_size + b_size + y_size
    a_block = range(a_size)
    shared_block = range(a_size, a_size + shared_size)
    b_block = range(a_size + shared_size, a_size + shared_size + b_size)
    y_block = range(n - y_size, n)

    for _ in range(max_attempts):
        edges = []
        xa = list(a_block) + list(shared_block)
        xb = list(shared_block) + list(b_block)
        for part in (xa, xb, list(y_block)):
            for i, u in enumerate(part):
                for v in part[i + 1:]:
                    edges.append((u, v))
        for x in xa + list(b_block):
            for y in y_block:
                if rng.random() < density:
                    edges.append((x, y))
        g = build_graph(n, sorted(set(edges)))
        p = validate_bab(g, xa, xb, list(y_block))
        if filter == "none":
            return g, p
        cg = build_chord_graph(g, p)
        nec = check_necessary(g, p, cg)
        if nec.status is NecessaryStatus.OUT_OF_SCOPE:
            continue
        if filter == "assumption1":
            return g, p
        if nec.status is not NecessaryStatus.PASS:
            continue
        suff = check_sufficient(g, p, cg, nec)
        if suff.reason not in ("partial-orders", "nesting"):
            return g, p
    raise GenerationError(
        f"no instance with filter {filter!r} within {max_attempts} attempts"
    )
