"""Immutable graphs, the three-clique partition, and unit interval order checks.

Vertices are integers 0..n-1. Adjacency is kept as one bitmask per vertex,
and the partition's sets are vertex masks too, so all set algebra on
neighborhoods and parts is integer arithmetic; ``bits`` lists a mask's
members. Every object here is frozen; functions return new values instead
of mutating.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError, ScopeError, StructuralError


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


def _capped(ids: Iterable[int], count: int) -> str:
    """The first ten of ``count`` ascending ids, then a count of the rest,
    so an error message stays short whatever the input's size. Only the
    ten shown are drawn from ``ids``."""
    shown = ", ".join(map(str, itertools.islice(ids, 10)))
    if count > 10:
        shown += f", … ({count - 10} more)"
    return f"[{shown}]"


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

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[v]))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            high = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(high):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(self.adj[v].bit_count() for v in range(self.n)) // 2

    def with_edges(self, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """A new graph with the given pairs added as edges."""
        adj = list(self.adj)
        for u, v in pairs:
            if u == v:
                raise InputError(f"self loop at {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(self.n, tuple(adj))


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Create a graph from an edge list, validating every endpoint."""
    if n < 0:
        raise InputError(f"negative vertex count {n}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise InputError(f"self loop at {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


@dataclass(frozen=True)
class BabPartition:
    """A validated partition of V(G) into cliques X_a, X_b (overlapping) and Y.

    ``x_a``, ``x_b`` and ``y`` are vertex masks, as are the derived parts.
    ``a_seq``/``b_seq`` list the private vertices of each side sorted so that
    Y-neighborhoods form an ascending inclusion chain; they are empty with the
    corresponding flag set to False when the side is not totally nested.
    """

    x_a: int
    x_b: int
    y: int
    a_seq: tuple[int, ...]
    b_seq: tuple[int, ...]
    a_nested: bool
    b_nested: bool

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
        return BabPartition(
            x_a=self.x_b,
            x_b=self.x_a,
            y=self.y,
            a_seq=self.b_seq,
            b_seq=self.a_seq,
            a_nested=self.b_nested,
            b_nested=self.a_nested,
        )


def ny_mask(g: Graph, p: BabPartition, v: int) -> int:
    """Bitmask of v's neighbors inside Y."""
    return g.adj[v] & p.y


def nx_mask(g: Graph, p: BabPartition, v: int) -> int:
    """Bitmask of v's neighbors inside X_a union X_b."""
    return g.adj[v] & p.x_all


def _nested_sequence(g: Graph, members: int, scope_mask: int):
    """Sort the vertices of mask ``members`` by scoped neighborhood size (ties
    by id) and test that the neighborhoods form an inclusion chain. Returns
    (sequence, nested_flag)."""
    seq = sorted(bits(members), key=lambda v: ((g.adj[v] & scope_mask).bit_count(), v))
    for prev, cur in zip(seq, seq[1:]):
        if (g.adj[prev] & scope_mask) & ~(g.adj[cur] & scope_mask):
            return (), False
    return tuple(seq), True


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
    """Validate the clique partition and derive the nesting sequences.

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

    a_seq, a_nested = _nested_sequence(g, xa & ~xb, ys)
    b_seq, b_nested = _nested_sequence(g, xb & ~xa, ys)
    return BabPartition(xa, xb, ys, a_seq, b_seq, a_nested, b_nested)


def is_unit_interval_order(g: Graph, order: Sequence[int]) -> bool:
    """Whether every edge's span is fully adjacent to both endpoints.

    ``order`` is a permutation of V. The test is the classical three-point
    condition: whenever u comes before z before v and u~v, both u~z and z~v
    must hold. Equivalently each vertex's closed neighborhood is one block
    of consecutive positions (Corneil et al. 1995). One sweep along the
    order counts v's neighbors before and after its position i and compares
    ``adj[v]`` with the block of that many positions on each side, taken
    from prefix masks: O(n) mask operations on n-bit integers.
    """
    seq = list(order)
    if sorted(seq) != list(range(g.n)):
        raise InputError("order is not a permutation of V")
    prefix = prefix_masks(seq)
    for i, v in enumerate(seq):
        nbrs = g.adj[v]
        before = (nbrs & prefix[i]).bit_count()
        after = nbrs.bit_count() - before
        if nbrs != prefix[i + 1 + after] ^ prefix[i - before] ^ (1 << v):
            return False
    return True
