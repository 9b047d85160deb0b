"""Text formats for instances and certificates, plus a random generator.

Both formats are line oriented and byte stable: emitting a parsed file
reproduces the file after normalization (sorted sets, single spaces, one
trailing newline). Coordinates are written as exact fractions, never
decimals.

``parse_instance`` reads canonical edge lines in bulk: ``edge u v`` with
single spaces, ids of at most 18 digits and a newline end, as
``emit_instance`` writes them. A short text reads each run of them as a
list of ids; a long one reads them a row at a time, one row mask per u,
and one bit-matrix transpose adds the other half of the adjacency.
``parse_instance`` says when, and why a text the rows refuse keeps its
first error. Every other spelling the parser accepts (extra blanks, CRLF
ends, longer ids, ...) is read line by line, parses to the same graph
and raises the same errors.
``parse_certificate`` reads canonical completion lines (``u,v`` tokens,
single spaces, ids of at most 18 digits) in bulk the same way, other
spellings token by token. Each parse call reads its ids, those of edge
rows aside, through one fresh ``_IntMemo``, so a repeated id token is
converted once.
Only the text spells out a forced set's pairs; a ``Certificate`` holds its
pair mask over the vertices of order1, bit u*n + v, as ``completion`` does.
A completion line's ids go straight to one row mask per u, with no tuple
or set per pair. A line with a pair not u < v among those vertices is
read again as a frozenset of its pairs, and its error names the first
bad pair in that set's order.
"""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction

from .errors import GenerationError, ParseError, _echo
from .graph import BabPartition, Graph, _add_edges, _covered_bab, _Shifts, _symmetric_rows
from .graph import bits, build_graph, check_cover
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
# The same lines, one match to a run of lines that share their u token,
# group 1: in canonical text, one row of the adjacency, or 1024 of its
# edges. Both scans match exactly the same lines, so the lines left to the
# line-by-line reader, their numbers and their errors do not depend on
# which scan runs.
_EDGE_ROWS = re.compile(r"^edge ([0-9]{1,18}) [0-9]{1,18}\n(?:edge \1 [0-9]{1,18}\n){0,1023}", re.M)
# The first two lines of a text as emit_instance writes them; group 1 is n.
_HEAD = re.compile(re.escape(INSTANCE_HEADER) + r"\nn ([0-9]{1,18})\n")
_ROWS_FROM = 8192  # the least text length read by rows; see parse_instance


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


def _instance_lines(text: str, scan: re.Pattern):
    """The content lines of an instance text in order, as (line number,
    line number, stripped line, None), except that each match of ``scan``,
    a run of canonical edge lines, comes as (number of its first line,
    number of its last line, None, the match)."""
    i, pos = 1, 0
    for run in scan.finditer(text):
        start, end = run.span()
        if start > pos:
            piece = text[pos:start]
            for j, line in _content_lines(piece, i):
                yield j, j, line, None
            # a run starts a line, so the piece before it ends in a line break
            i += len(piece.splitlines())
        j = i + text.count("\n", start, end)
        yield i, j - 1, None, run
        i, pos = j, end
    for j, line in _content_lines(text[pos:], i):
        yield j, j, line, None


def parse_instance(text: str) -> tuple[Graph, BabPartition]:
    """The graph and partition of an instance text.

    A text of at least ``_ROWS_FROM`` characters that opens with the header
    and an n line as ``emit_instance`` writes them, and whose bit matrix
    fits (``_row_side``), reads its canonical edge lines by rows
    (``_graph_of_rows``); any other text reads each run of them as a list
    of ids. The choice is made once, from the text's length and head,
    before the text is scanned.
    On ``generate_bab`` texts, best of 15 in one process, rows cost 1.3
    to 1.4 times as much at n=18 (1 KB), break even near 5,000 characters
    (n=36 to 42), save 5-11% at 6,500-8,000 and 14-27% from 9,000 (n=50 to
    70). The cut at 8192 leaves a margin, and the texts of the two small
    benchmark workloads, at most 3.7 KB, never take rows.

    Rows that do not come in order of u, as canonical text lists them, or
    a run that fails a check of ``_graph_of_rows``, send the whole text
    back to the lists of ids, read again from the start. Every edge then
    goes through ``build_graph`` in text order, so the first bad edge
    raises the error a short text would give it.
    """
    head = len(text) >= _ROWS_FROM and _HEAD.match(text)
    fields = head and _row_side(int(head[1]), len(text)) and _instance_fields(text, _EDGE_ROWS)
    n, sets, ids, runs = fields or _instance_fields(text, _EDGE_RUN)
    # the ids are checked against n before anything of size n is allocated
    cover = tuple(frozenset(sets.pop(key)) for key in ("xa", "xb", "y"))
    check_cover(n, *cover)
    g = _graph_of_rows(n, runs, ids, len(text)) if runs else None
    if g is None:
        if runs:  # the rows were refused: every edge id again, in text order
            ids = _instance_fields(text, _EDGE_RUN)[2]
        ends = iter(ids)
        g = build_graph(n, zip(ends, ends))
    return g, _covered_bab(g, *cover)


def _instance_fields(
    text: str, scan: re.Pattern
) -> tuple[int, dict[str, list[int]], list[int], list[tuple[int, re.Match]]] | None:
    """n, the id lists of the xa, xb and y lines, the endpoints of the edges
    read line by line, two per edge in text order, and the runs ``scan``
    matches. ``_EDGE_RUN``'s runs go to the endpoints; ``_EDGE_ROWS``'s are
    kept as (line count, match), and must come in order of u, or the result
    is None. The id memo goes with the call, before anything of size n is
    built."""
    n = None
    sets: dict[str, list[int] | None] = {"xa": None, "xb": None, "y": None}
    ids: list[int] = []  # edge endpoints, two per edge, in text order
    runs: list[tuple[int, re.Match]] = []
    top = 0  # the largest u of a run so far
    last = None  # number of the last content line
    ints = _IntMemo()
    for i, j, line, run in _instance_lines(text, scan):
        if last is None:
            if line != INSTANCE_HEADER:
                raise ParseError(f"line {i}: expected header {INSTANCE_HEADER!r}")
            last = i
            continue
        last = j
        if run is not None:
            if scan is _EDGE_RUN:
                ids.extend(map(ints.__getitem__, run[0].replace("edge ", "").split()))
                continue
            u = int(run[1])
            if u < top:
                return None
            top = u
            runs.append((last - i + 1, run))
            continue
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
    return n, sets, ids, runs


def _row_side(n: int, size: int) -> int:
    """The side of the bit matrix of n vertices, the least power of two
    at least max(n, 8), or 0 when its square exceeds two bits per character
    of a text of ``size`` characters."""
    s = max(8, 1 << (n - 1).bit_length())
    return s if s * s <= 2 * size else 0


def _graph_of_rows(n: int, runs: list[tuple[int, re.Match]], ids: list[int], size: int) -> Graph | None:
    """The graph of an instance text of ``size`` characters, from its
    ``_EDGE_ROWS`` runs and the endpoints of its other edges, once its ids
    have passed ``check_cover`` for n; None when the text is to be read by
    lists of ids instead.

    Each run becomes one row mask: the sum of the single-bit masks of its
    v tokens, from a table keyed by ``str(v)``. The sum is the OR of one
    edge per line, all of them valid, when four checks pass: each v token
    is a key, so 0 <= v < n (an id past n or spelled with a leading zero is
    not); so is the u token; the sum has one bit per line, so no v repeats
    and no bits carry; and the row lacks bit u, so no line is a self loop.
    Rows of one u OR together. One transpose of the S×S bit matrix,
    S = ``_row_side(n, size)``, adds the other half of the adjacency, and
    the other edges go through ``build_graph``'s check and shifts in text
    order: with every run passed, only they can be bad, so the first bad
    one is the first of the text.

    Memory: the table's n*n/2 bits are built only once n*n/512 edges are
    read, as in ``build_graph``, and the matrix's S*S bits are at most two
    per character of text, so each of the four matrix-sized ints the
    transpose holds at a time takes at most a quarter of the text's size.
    The kernel's traced peak stays under four times the text's size: it is
    about 1.1 times past 100 KB, and 3.0 times on the text that costs it
    the most per character, 8,192 characters at n=128, where the table's
    entries outweigh the matrix.
    """
    s = _row_side(n, size)
    if not s or sum(k for k, _ in runs) + len(ids) // 2 < n * n >> 9:
        return None
    one = {str(v): 1 << v for v in range(n)}
    get = one.__getitem__
    rows = [0] * n
    for k, run in runs:
        u = run[1]
        bit = one.get(u)
        try:
            row = sum(map(get, run.string[run.start() + len(u) + 6:run.end() - 1].split(f"\nedge {u} ")))
        except KeyError:
            return None
        if bit is None or row & bit or row.bit_count() != k:
            return None
        rows[bit.bit_length() - 1] |= row
    del one, get  # the table is not held through the transpose
    adj = _symmetric_rows(rows, s)
    ends = iter(ids)
    _add_edges(adj, zip(ends, ends), _Shifts())
    return Graph(n, tuple(adj))


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


def _parse_pairs(i: int, rest: str, ints: _IntMemo) -> list[int]:
    """The ids of a completion line's pairs, two per pair in text order. A
    canonical body is read in bulk through ``ints``, any other token by
    token, with the same ids and errors."""
    if _PAIR_LINE.fullmatch(rest):
        return list(map(ints.__getitem__, rest.replace(",", " ").split()))
    ids = []
    for tok in rest.split():
        left, _, right = tok.partition(",")
        try:
            ids += int(left), int(right)
        except ValueError:
            raise ParseError(f"line {i}: bad pair {_echo(tok)}") from None
    return ids


def _range_error(i: int, ids: list[int], n: int) -> ParseError:
    """The error for line i, whose ids hold a pair not 0 <= u < v < n. It
    names the first such pair in the order of a frozenset of the pairs."""
    ends = iter(ids)
    u, v = next((u, v) for u, v in frozenset(zip(ends, ends)) if not 0 <= u < v < n)
    shown = f"{_echo(u, str)},{_echo(v, str)}"
    return ParseError(f"line {i}: pair {shown} is not u < v among the {n} vertices of order1")


def _pair_mask(i: int, ids: list[int], n: int) -> int:
    """The pair mask over n vertices of the pairs of line i, from their ids
    as ``_parse_pairs`` lists them. Each pair ORs bit v into row u, with no
    tuple or set per pair, and the rows then fold in pairs, in log2(n)
    rounds. A pair not 0 <= u < v < n raises ParseError before it is
    shifted, so a hostile id never builds a huge int."""
    rows = [0] * n
    ends = iter(ids)
    for u, v in zip(ends, ends):
        if not 0 <= u < v < n:
            raise _range_error(i, ids, n)
        rows[u] |= 1 << v
    # row u lands at bit u*n: each round joins neighboring rows, doubling the width
    width = n
    while len(rows) > 1:
        if len(rows) % 2:
            rows.append(0)
        rows = [lo | hi << width for lo, hi in zip(rows[::2], rows[1::2])]
        width *= 2
    return rows[0] if rows else 0


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
) -> tuple[Graph, BabPartition]:
    """Random instance with the given block sizes (private a, shared,
    private b, y) and X-Y edge density in [0, 1]. Deterministic per seed:
    one ``random.Random(seed)`` decides each X-Y edge in turn. A bad
    request (an empty shared or y block, a negative size, a density
    outside [0, 1], too many vertices) raises GenerationError. The three
    blocks are cliques and only X-Y edges are drawn, so the partition is
    read off the block masks without validation.
    """
    a_size, shared_size, b_size, y_size = sizes
    if shared_size < 1 or y_size < 1:
        raise GenerationError("shared part and y part must be nonempty")
    if min(a_size, b_size) < 0:
        raise GenerationError("negative block size")
    if not 0 <= density <= 1:  # also rejects NaN, which fails every comparison
        raise GenerationError(f"density wants a number in [0, 1], got {density!r}")
    rng = random.Random(seed)
    n = a_size + shared_size + b_size + y_size
    if n > sys.maxsize:  # no list that long can be built
        raise GenerationError(f"block sizes sum to {_echo(n, str)}, more than {sys.maxsize} vertices")
    xa, xb, ys = range(a_size + shared_size), range(a_size, n - y_size), range(n - y_size, n)
    adj = [0] * n
    cliques = [(1 << part.stop) - (1 << part.start) for part in (xa, xb, ys)]
    for part, clique in zip((xa, xb, ys), cliques):
        for v in part:
            adj[v] |= clique & ~(1 << v)
    for x in range(n - y_size):
        for y in ys:
            if rng.random() < density:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return Graph(n, tuple(adj)), BabPartition(*cliques)
