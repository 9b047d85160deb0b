"""Immutable graphs, the three-clique partition, and a linear order's blocks.

Vertices are integers 0..n-1. Adjacency is kept as one bitmask per vertex,
and the partition's sets are vertex masks too, so all set algebra on
neighborhoods and parts is integer arithmetic; ``bits`` lists a mask's
members, ``_reach`` an order's blocks. Every object here is frozen;
functions return new values instead of mutating.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import _ECHO_LIMIT, InputError, ScopeError, StructuralError, _echo


def bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lowest(mask: int) -> int:
    """The least set bit position of a nonzero ``mask``."""
    return (mask & -mask).bit_length() - 1


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def upper_pairs(adj: Sequence[int]) -> list[tuple[int, int]]:
    """The pairs (u, v), u < v, with bit v set in ``adj[u]``, in
    lexicographic order: the edges of a symmetric table of masks."""
    return [(u, v) for u, m in enumerate(adj) for v in bits(m >> (u + 1) << (u + 1))]


def union_of(masks: Sequence[int], ids: int) -> int:
    """The union of ``masks[i]`` over the set bits i of ``ids``."""
    m = 0
    for i in bits(ids):
        m |= masks[i]
    return m


def prefix_masks(seq: Sequence[int]) -> list[int]:
    """``out[i]`` is the mask of ``seq[:i]``, for i in 0..len(seq); the
    vertices at positions lo..hi-1 are then ``out[hi] ^ out[lo]``."""
    out = [0]
    for v in seq:
        out.append(out[-1] | 1 << v)
    return out


def _reach(g: Graph, seq: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """An order's blocks, read by ``completion``, ``realize_unit_interval``
    and ``is_unit_interval_order``: the prefix masks of ``seq``, ``first``
    and ``reach``. ``reach[i]`` is the last position of a neighbor of any
    vertex at positions 0..i, or i if later, and ``first[k]`` is L(k), the
    first i with ``reach[i] >= k``. Position k's neighbors lie in its block
    L(k)..reach[k]; in the completion of ``seq`` they are the whole block
    but k. Two pointer sweeps, O(n) mask operations.
    """
    n = len(seq)
    prefix = prefix_masks(seq)
    reach = []
    seen = 0  # neighbors of the vertices at positions 0..i
    r = 0
    for i, w in enumerate(seq):
        seen |= g.adj[w]
        r = max(r, i)
        while r + 1 < n and seen & ~prefix[r + 1]:
            r += 1
        reach.append(r)
    first = []
    lo = 0
    for k in range(n):
        while reach[lo] < k:
            lo += 1
        first.append(lo)
    return prefix, first, reach


def _capped(ids: Iterable[int], count: int) -> str:
    """The first ten of ``count`` ascending ids, then a count of the rest,
    so an error message stays short whatever the input's size; a cut id ends
    the list. Only the ids shown are drawn from ``ids``."""
    shown = []
    for v in itertools.islice(ids, 10):
        shown.append(_echo(v, str))
        if len(shown[-1]) > _ECHO_LIMIT:
            break
    text = ", ".join(shown)
    if count > len(shown):
        text += f", … ({_echo(count - len(shown), str)} more)"
    return f"[{text}]"


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph.

    ``adj[v]`` is the bitmask of neighbors of ``v``. Instances are immutable
    and safe to share between threads.
    """

    n: int
    adj: tuple[int, ...]

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        return upper_pairs(self.adj)

    def edge_count(self) -> int:
        return sum(self.adj[v].bit_count() for v in range(self.n)) // 2


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Create a graph from an edge list, validating every endpoint.

    Each edge ORs two single-bit masks. The first n*n/512 edges shift them;
    an edge list that goes on past those reads the rest from one table of
    the n masks, built once per call, so no mask is shifted per edge. The
    table's n*n/2 bits are then at most 256 bits per edge read, and a short
    list on a large n, such as an instance text that lacks its clique
    edges, never builds it. An endpoint is checked against n, and a self
    loop refused, before it indexes anything.
    """
    if n < 0:
        raise InputError(f"negative vertex count {_echo(n, str)}")
    adj = [0] * n
    edges = iter(edges)
    _add_edges(adj, itertools.islice(edges, n * n >> 9), _Shifts())
    more = next(edges, None)
    if more is not None:
        one = [1 << v for v in range(n)]
        _add_edges(adj, (more,), one)
        del more  # a zip reuses its result tuple only when no one holds it
        _add_edges(adj, edges, one)
    return Graph(n, tuple(adj))


class _Shifts:
    """``_Shifts()[v]`` is ``1 << v``, shifted on each lookup."""

    def __getitem__(self, v: int) -> int:
        return 1 << v


# the byte of a bit matrix row whose bits c have c & j set, for j = 1, 2, 4
_LOW_COLUMNS = {1: b"\xaa", 2: b"\xcc", 4: b"\xf0"}


def _swap_mask(s: int, j: int) -> int:
    """The bits of an s×s bit matrix, row r at bits r*s..r*s+s-1, whose row
    has bit j clear and whose column has bit j set; built from one repeated
    bytes pattern, not as a sum of shifted rows."""
    w = s >> 3  # bytes per row
    reps = s // (2 * j)  # blocks of j rows, or of j columns, with bit j clear
    cols = _LOW_COLUMNS[j] * w if j < 8 else (bytes(j >> 3) + b"\xff" * (j >> 3)) * reps
    return int.from_bytes((cols * j + bytes(w * j)) * reps, "little")


def _transpose(m: int, s: int) -> int:
    """The transpose of the s×s bit matrix ``m``, whose row r is bits
    r*s..r*s+s-1, for s a power of two of at least 8.

    Round j, for j = s/2, s/4, ..., 1, swaps in every 2j×2j block its
    upper right j×j block with its lower left one, j*(s-1) bits higher:
    log2(s) delta swaps on one int (Warren, Hacker's Delight, §7-3). A
    round holds four ints of s*s bits at a time, ``m`` among them, so the
    peak is four times the matrix's s*s/8 bytes when the caller keeps no
    other reference to ``m``.
    """
    j = s >> 1
    while j:
        d = j * (s - 1)
        t = (m ^ m >> d) & _swap_mask(s, j)
        m ^= t ^ t << d
        del t
        j >>= 1
    return m


def _symmetric_rows(rows: Sequence[int], s: int) -> list[int]:
    """The n×n bit matrix whose row u is ``rows[u]``, a mask below bit n,
    OR-ed with its transpose: row u gains bit v wherever ``rows[v]`` holds
    bit u. The matrix goes into one int of s*s bits through bytes, s a
    power of two of at least max(n, 8), and its transpose comes out the
    same way."""
    w = s >> 3
    # no name holds the matrix while _transpose runs, so its rounds free it
    m = _transpose(int.from_bytes(b"".join(row.to_bytes(w, "little") for row in rows), "little"), s)
    data = m.to_bytes(len(rows) * w, "little")
    del m
    return [row | int.from_bytes(data[k:k + w], "little") for k, row in zip(range(0, len(data), w), rows)]


def _add_edges(adj: list[int], edges, one) -> None:
    """Set both bits of every edge in ``adj``, with ``one[v]`` the mask of
    vertex v; the first bad edge raises InputError."""
    n = len(adj)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(
                f"edge ({_echo(u, str)},{_echo(v, str)}) out of range for n={_echo(n, str)}"
            )
        if u == v:
            raise InputError(f"self loop at {_echo(u, str)}")
        adj[u] |= one[v]
        adj[v] |= one[u]


@dataclass(frozen=True)
class BabPartition:
    """A validated partition of V(G) into cliques X_a, X_b (overlapping) and Y.

    ``x_a``, ``x_b`` and ``y`` are vertex masks, as are the derived parts.
    """

    x_a: int
    x_b: int
    y: int

    @property
    def x_all(self) -> int:
        return self.x_a | self.x_b

    @property
    def shared(self) -> int:
        return self.x_a & self.x_b

    @property
    def a_only(self) -> int:
        return self.x_a & ~self.x_b

    @property
    def b_only(self) -> int:
        return self.x_b & ~self.x_a

    def mirrored(self) -> "BabPartition":
        """The same partition with the roles of X_a and X_b exchanged."""
        return BabPartition(self.x_b, self.x_a, self.y)


def ny_mask(g: Graph, p: BabPartition, v: int) -> int:
    """Bitmask of v's neighbors inside Y."""
    return g.adj[v] & p.y


def check_cover(n: int, xa: frozenset[int], xb: frozenset[int], ys: frozenset[int]) -> None:
    """Raise StructuralError unless X = X_a | X_b and Y are disjoint and
    list exactly the ids 0..n-1.

    O(ids listed), whatever n: the first ten missing ids are found lazily
    and the rest only counted, so a parser can run it before allocating
    anything of size n.
    """
    x_union = xa | xb
    if x_union & ys:
        overlap = sorted(x_union & ys)
        raise StructuralError(f"X and Y overlap on {_capped(overlap, len(overlap))}")
    listed = x_union | ys
    extra = sorted(v for v in listed if not 0 <= v < n)
    inside = len(listed) - len(extra)
    if inside < n or extra:
        missing = (v for v in range(n) if v not in listed)
        raise StructuralError(
            f"sets do not cover V: missing={_capped(missing, n - inside)}"
            f" extra={_capped(extra, len(extra))}"
        )


def validate_bab(g: Graph, x_a: Iterable[int], x_b: Iterable[int], y: Iterable[int]) -> BabPartition:
    """Validate the clique partition.

    Raises StructuralError when a set fails to be a clique (naming the first
    missing edge), when the sets do not partition V, or when X_a and X_b are
    disjoint. An edge between a private X_a vertex and a private X_b vertex
    is out of scope and raises ScopeError. Each clique and the private sides
    are checked with one mask test per vertex.

    The id sets are checked by ``check_cover`` before any mask is built
    from them, so an id outside 0..n-1 never reaches a shift.
    """
    sets = tuple(map(frozenset, (x_a, x_b, y)))
    check_cover(g.n, *sets)
    return _covered_bab(g, *sets)


def _covered_bab(g: Graph, *sets: frozenset[int]) -> BabPartition:
    """``validate_bab`` on the id sets of X_a, X_b and Y once ``check_cover``
    has passed them for ``g.n``."""
    xa, xb, ys = map(mask_of, sets)
    if not xa & xb:
        raise StructuralError("X_a and X_b must intersect")

    for name, members in (("X_a", xa), ("X_b", xb), ("Y", ys)):
        for u in bits(members):
            lack = (members & ~g.adj[u]) >> (u + 1)
            if lack:
                v = u + (lack & -lack).bit_length()
                raise StructuralError(f"{name} is not a clique: missing edge ({u},{v})")

    for a in bits(xa & ~xb):
        hit = g.adj[a] & xb & ~xa
        if hit:
            raise ScopeError(f"edge ({a},{lowest(hit)}) joins the private sides of X_a and X_b")
    return BabPartition(xa, xb, ys)


def is_unit_interval_order(g: Graph, order: Sequence[int]) -> bool:
    """Whether every edge's span is fully adjacent to both endpoints.

    ``order`` is a permutation of V. The test is the classical three-point
    condition: whenever u comes before z before v and u~v, both u~z and z~v
    must hold (Corneil et al. 1995), i.e. no edge straddles a non-edge and
    the order's forced set (``completion``) is empty. A vertex's closed
    neighborhood lies in its block (``_reach``), and the completion makes it
    the whole block, so the test is that every closed neighborhood already
    is its block: O(n) mask operations on n-bit integers.
    """
    seq = list(order)
    if sorted(seq) != list(range(g.n)):
        raise InputError("order is not a permutation of V")
    prefix, first, reach = _reach(g, seq)
    return all(
        g.adj[v] | 1 << v == prefix[reach[k] + 1] ^ prefix[first[k]]
        for k, v in enumerate(seq)
    )
