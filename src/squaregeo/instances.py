"""Text formats for instances and certificates, plus a random generator.

Both formats are line oriented and byte stable: emitting a parsed file
reproduces the file after normalization (sorted sets, single spaces, one
trailing newline). Coordinates are written as exact fractions, never
decimals.

``parse_instance`` reads canonical edge lines in bulk: ``edge u v`` with
single spaces, ids of at most 18 digits and a newline end, as
``emit_instance`` writes them. Every other spelling the parser accepts
(extra blanks, CRLF ends, longer ids, ...) is read line by line, parses
to the same graph and raises the same errors. ``parse_certificate`` reads
canonical completion lines (``u,v`` tokens, single spaces, ids of at most
18 digits) in bulk the same way. Each parse call reads its ids through
one fresh ``_IntMemo``, so a repeated id token is converted once.
Only the text spells out a forced set's pairs; a ``Certificate`` holds its
pair mask over the vertices of order1, bit u*n + v, as ``completion`` does.
"""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction

from .chords import build_chord_graph
from .errors import GenerationError, ParseError, _echo
from .graph import BabPartition, Graph, bits, build_graph, check_cover, validate_bab
from .necessary import NecessaryStatus, check_necessary
from .orders import check_sufficient
from .pipeline import NO, UNDECIDED, YES, Certificate

INSTANCE_HEADER = "bab-instance v1"
CERTIFICATE_HEADER = "bab-certificate v1"
_COORDINATE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# A whole completion body "u,v u,v ...", as emit_certificate writes it, of
# at most 8192 pairs. The cap keeps the match's backtracking stack and the
# bulk split at about a megabyte; a longer body is read token by token.
_PAIR_LINE = re.compile(r"[0-9]{1,18},[0-9]{1,18}(?: [0-9]{1,18},[0-9]{1,18}){0,8191}")


# Whole lines "edge <digits> <digits>\n", as emit_instance writes them. The
# repetition cap keeps the backtracking stack of one match small; the digit
# cap keeps every id below any int_max_str_digits limit Python allows.
_EDGE_RUN = re.compile(r"^(?:edge [0-9]{1,18} [0-9]{1,18}\n){1,1024}", re.M)
_ATTEMPTS = 200  # generate_bab's rejection-sampling cap


def _content_lines(text: str, start: int = 1):
    """Pairs (line number, stripped line), skipping blanks and # comments;
    the first line of ``text`` is numbered ``start``."""
    for i, raw in enumerate(text.splitlines(), start=start):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield i, line


class _IntMemo(dict):
    """``ints[tok]`` is ``int(tok)``, converted on first use of each token;
    ``int``'s ValueError passes through. One per parse call."""

    def __missing__(self, tok: str) -> int:
        self[tok] = value = int(tok)
        return value


def _int_fields(i: int, rest: str, what: str, ints: _IntMemo) -> list[int]:
    try:
        return [ints[tok] for tok in rest.split()]
    except ValueError:
        raise ParseError(f"line {i}: {what} wants integers, got {_echo(rest)}") from None


def _instance_lines(text: str, ints: _IntMemo):
    """The content lines of an instance text in order, as (line number,
    stripped line, None), except that each run of canonical edge lines
    comes as one (number of its first line, None, its ids in text order)."""
    i, pos = 1, 0
    for run in _EDGE_RUN.finditer(text):
        piece = text[pos:run.start()]
        for j, line in _content_lines(piece, i):
            yield j, line, None
        # a run starts a line, so the piece before it ends in a line break
        i += len(piece.splitlines())
        chunk = run.group()
        yield i, None, map(ints.__getitem__, chunk.replace("edge ", "").split())
        i += chunk.count("\n")
        pos = run.end()
    for j, line in _content_lines(text[pos:], i):
        yield j, line, None


def parse_instance(text: str) -> tuple[Graph, BabPartition]:
    n = None
    sets: dict[str, list[int] | None] = {"xa": None, "xb": None, "y": None}
    ids: list[int] = []  # edge endpoints, two per edge, in text order
    last = None  # number of the last content line
    ints = _IntMemo()
    for i, line, run in _instance_lines(text, ints):
        if last is None:
            if line != INSTANCE_HEADER:
                raise ParseError(f"line {i}: expected header {INSTANCE_HEADER!r}")
            last = i
            continue
        if run is not None:
            start = len(ids)
            ids.extend(run)
            last = i + (len(ids) - start) // 2 - 1
            continue
        last = i
        key, _, rest = line.partition(" ")
        if key == "n":
            if n is not None:
                raise ParseError(f"line {i}: duplicate n line")
            vals = _int_fields(i, rest, "n", ints)
            if len(vals) != 1 or vals[0] < 0:
                raise ParseError(f"line {i}: n wants one nonnegative integer")
            n = vals[0]
        elif key in sets:
            if sets[key] is not None:
                raise ParseError(f"line {i}: duplicate {key} line")
            sets[key] = _int_fields(i, rest, key, ints)
        elif key == "edge":
            vals = _int_fields(i, rest, "edge", ints)
            if len(vals) != 2:
                raise ParseError(f"line {i}: edge wants two vertex ids")
            ids += vals
        else:
            raise ParseError(f"line {i}: unknown keyword {_echo(key)}")
    if last is None:
        raise ParseError(f"line 1: expected header {INSTANCE_HEADER!r}")
    if n is None:
        raise ParseError(f"line {last}: missing n line")
    for key, val in sets.items():
        if val is None:
            raise ParseError(f"line {last}: missing {key} line")
    # the ids are checked against n before anything of size n is allocated
    check_cover(n, *(frozenset(sets[key]) for key in ("xa", "xb", "y")))
    ends = iter(ids)
    g = build_graph(n, zip(ends, ends))
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
    m = _COORDINATE.fullmatch(tok)
    if not m:
        raise ValueError(f"bad coordinate {tok!r}")
    return Fraction(int(m[1]), int(m[2] or 1))


def _emit_pairs(key: str, mask: int, n: int) -> str:
    """A completion line: a pair mask's rows, read in order, are its sorted pairs."""
    out = [key]
    full = (1 << n) - 1
    for u in range(n):
        out += [f"{u},{v}" for v in bits(mask & full)]
        mask >>= n
    return " ".join(out)


def _parse_pairs(i: int, rest: str, ints: _IntMemo) -> frozenset[tuple[int, int]]:
    """The pairs of a completion line; a canonical body is read in bulk
    through ``ints``, any other token by token, with the same pairs and
    errors."""
    if _PAIR_LINE.fullmatch(rest):
        ends = map(ints.__getitem__, rest.replace(",", " ").split())
        return frozenset(zip(ends, ends))
    pairs = []
    for tok in rest.split():
        left, _, right = tok.partition(",")
        try:
            pairs.append((int(left), int(right)))
        except ValueError:
            raise ParseError(f"line {i}: bad pair {_echo(tok)}") from None
    return frozenset(pairs)


def _pair_mask(i: int, pairs: frozenset[tuple[int, int]], n: int) -> int:
    """The pair mask over n vertices of the pairs of line i. A pair not
    0 <= u < v < n raises ParseError before it is shifted, so a hostile id
    never builds a huge int. One row per u, then one shift per row."""
    rows = [0] * n
    for u, v in pairs:
        if not 0 <= u < v < n:
            shown = f"{_echo(u, str)},{_echo(v, str)}"
            raise ParseError(f"line {i}: pair {shown} is not u < v among the {n} vertices of order1")
        rows[u] |= 1 << v
    mask = 0
    for row in reversed(rows):
        mask = mask << n | row
    return mask


def emit_certificate(cert: Certificate) -> str:
    out = [CERTIFICATE_HEADER, f"verdict {cert.verdict}", f"route {cert.route}"]
    if cert.reason:
        out.append(f"reason {cert.reason}")
    if cert.verdict == YES:
        out.append("order1 " + " ".join(map(str, cert.order1)))
        out.append("order2 " + " ".join(map(str, cert.order2)))
        out.append(_emit_pairs("completion1", cert.completion1, len(cert.order1)))
        out.append(_emit_pairs("completion2", cert.completion2, len(cert.order1)))
        for v, (x, y) in enumerate(cert.embedding):
            out.append(f"coord {v} {x} {y}")
    return "\n".join(out) + "\n"


def parse_certificate(text: str) -> Certificate:
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != CERTIFICATE_HEADER:
        where = lines[0][0] if lines else 1
        raise ParseError(f"line {where}: expected header {CERTIFICATE_HEADER!r}")
    fields: dict[str, object] = {}
    coords: dict[int, tuple[Fraction, Fraction]] = {}
    ints = _IntMemo()
    for i, line in lines[1:]:
        key, _, rest = line.partition(" ")
        if key in fields:
            raise ParseError(f"line {i}: duplicate {key} line")
        if key in ("verdict", "route", "reason"):
            fields[key] = rest
        elif key in ("order1", "order2"):
            seq = _int_fields(i, rest, key, ints)
            if sorted(seq) != list(range(len(seq))):
                raise ParseError(f"line {i}: {key} is not a permutation of 0..{len(seq) - 1}")
            fields[key] = tuple(seq)
        elif key in ("completion1", "completion2"):
            fields[key] = (i, _parse_pairs(i, rest, ints))
        elif key == "coord":
            toks = rest.split()
            if len(toks) != 3:
                raise ParseError(f"line {i}: coord wants vertex x y")
            try:
                v, xy = int(toks[0]), (_coordinate(toks[1]), _coordinate(toks[2]))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"line {i}: bad coordinate in {_echo(rest)}") from None
            if v in coords:
                raise ParseError(f"line {i}: duplicate coord line for vertex {v}")
            coords[v] = xy
        else:
            raise ParseError(f"line {i}: unknown keyword {_echo(key)}")
    verdict = fields.get("verdict")
    if verdict not in (YES, NO, UNDECIDED):
        shown = "None" if verdict is None else _echo(verdict)
        raise ParseError(f"line 1: missing or unknown verdict {shown}")
    embedding = None
    if coords:
        if sorted(coords) != list(range(len(coords))):
            raise ParseError("line 1: coord lines do not cover 0..n-1")
        embedding = tuple(coords[v] for v in range(len(coords)))
    n = len(fields.get("order1", ()))
    for key in ("completion1", "completion2"):
        if key in fields:
            fields[key] = _pair_mask(*fields[key], n)
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
) -> tuple[Graph, BabPartition]:
    """Random instance with the given block sizes (private a, shared,
    private b, y) and X-Y edge density in [0, 1]. Deterministic per seed.

    filter "assumption1" keeps only instances passing the structural audit;
    "sufficient" keeps only instances satisfying every order-construction
    condition (the construction outcome itself is not consulted). Rejection
    sampling, so a generation error is raised after 200 attempts.
    """
    a_size, shared_size, b_size, y_size = sizes
    if shared_size < 1 or y_size < 1:
        raise GenerationError("shared part and y part must be nonempty")
    if min(a_size, b_size) < 0:
        raise GenerationError("negative block size")
    if filter not in ("none", "assumption1", "sufficient"):
        raise GenerationError(f"unknown filter {filter!r}")
    if not 0 <= density <= 1:  # also rejects NaN, which fails every comparison
        raise GenerationError(f"density wants a number in [0, 1], got {density!r}")
    rng = random.Random(seed)
    n = a_size + shared_size + b_size + y_size
    if n > sys.maxsize:  # no list that long can be built
        raise GenerationError(f"block sizes sum to {_echo(n, str)}, more than {sys.maxsize} vertices")
    a_block = range(a_size)
    shared_block = range(a_size, a_size + shared_size)
    b_block = range(a_size + shared_size, a_size + shared_size + b_size)
    y_block = range(n - y_size, n)

    for _ in range(_ATTEMPTS):
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
        f"no instance with filter {filter!r} within {_ATTEMPTS} attempts"
    )
