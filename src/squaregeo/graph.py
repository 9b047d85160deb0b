"""Immutable graphs, the three-clique partition, and unit interval order checks.

Vertices are integers 0..n-1. Adjacency is kept as one bitmask per vertex, so
all set algebra on neighborhoods is integer arithmetic. Every object here is
frozen; functions return new values instead of mutating.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import InputError, ScopeError, StructuralError


def bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def prefix_masks(seq: Sequence[int]) -> list[int]:
    """``out[i]`` is the mask of ``seq[:i]``, for i in 0..len(seq); the
    vertices at positions lo..hi-1 are then ``out[hi] ^ out[lo]``."""
    out = [0]
    for v in seq:
        out.append(out[-1] | 1 << v)
    return out


def _capped(ids: Sequence[int]) -> str:
    """The first ten ids of a sorted list, then a count of the rest, so an
    error message stays short whatever the input's size."""
    shown = ", ".join(map(str, ids[:10]))
    if len(ids) > 10:
        shown += f", … ({len(ids) - 10} more)"
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

    def non_edges(self) -> list[tuple[int, int]]:
        """All non-adjacent unordered pairs, lexicographically."""
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not self.adjacent(u, v):
                    out.append((u, v))
        return out

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


class NestingRelation(Enum):
    """Outcome of comparing two scoped neighborhoods under inclusion."""

    EQUAL = "equal"
    LEFT_SUBSET = "left-subset"
    RIGHT_SUBSET = "right-subset"
    CROSSING = "crossing"


def nesting(g: Graph, u: int, v: int, scope: Iterable[int]) -> NestingRelation:
    """Compare N(u) and N(v) restricted to ``scope`` under set inclusion.

    Exactly one outcome is reported; EQUAL when the restrictions coincide,
    LEFT_SUBSET when N(u) is a proper subset of N(v), and symmetrically.
    """
    smask = mask_of(scope)
    nu = g.adj[u] & smask
    nv = g.adj[v] & smask
    if nu == nv:
        return NestingRelation.EQUAL
    if nu & ~nv == 0:
        return NestingRelation.LEFT_SUBSET
    if nv & ~nu == 0:
        return NestingRelation.RIGHT_SUBSET
    return NestingRelation.CROSSING


@dataclass(frozen=True)
class BabPartition:
    """A validated partition of V(G) into cliques X_a, X_b (overlapping) and Y.

    ``a_seq``/``b_seq`` list the private vertices of each side sorted so that
    Y-neighborhoods form an ascending inclusion chain; they are empty with the
    corresponding flag set to False when the side is not totally nested.
    ``parts_connected`` records whether both partition sides are nonempty
    connected graphs (the clique structure makes them connected whenever
    nonempty, so this is simply |Y| > 0 given that the shared part exists).
    """

    x_a: frozenset[int]
    x_b: frozenset[int]
    y: frozenset[int]
    a_seq: tuple[int, ...]
    b_seq: tuple[int, ...]
    a_nested: bool
    b_nested: bool
    parts_connected: bool
    xa_mask: int
    xb_mask: int
    y_mask: int

    @property
    def shared(self) -> frozenset[int]:
        return self.x_a & self.x_b

    @property
    def a_only(self) -> frozenset[int]:
        return self.x_a - self.x_b

    @property
    def b_only(self) -> frozenset[int]:
        return self.x_b - self.x_a

    @property
    def x_all(self) -> frozenset[int]:
        return self.x_a | self.x_b

    @property
    def x_mask(self) -> int:
        return self.xa_mask | self.xb_mask

    @property
    def shared_mask(self) -> int:
        return self.xa_mask & self.xb_mask

    @property
    def a_only_mask(self) -> int:
        return self.xa_mask & ~self.xb_mask

    @property
    def b_only_mask(self) -> int:
        return self.xb_mask & ~self.xa_mask

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
            parts_connected=self.parts_connected,
            xa_mask=self.xb_mask,
            xb_mask=self.xa_mask,
            y_mask=self.y_mask,
        )


def ny_mask(g: Graph, p: BabPartition, v: int) -> int:
    """Bitmask of v's neighbors inside Y."""
    return g.adj[v] & p.y_mask


def nx_mask(g: Graph, p: BabPartition, v: int) -> int:
    """Bitmask of v's neighbors inside X_a union X_b."""
    return g.adj[v] & p.x_mask


def _nested_sequence(g: Graph, members: Iterable[int], scope_mask: int):
    """Sort members by scoped neighborhood size (ties by id) and test that the
    neighborhoods form an inclusion chain. Returns (sequence, nested_flag)."""
    seq = sorted(members, key=lambda v: ((g.adj[v] & scope_mask).bit_count(), v))
    for prev, cur in zip(seq, seq[1:]):
        if (g.adj[prev] & scope_mask) & ~(g.adj[cur] & scope_mask):
            return (), False
    return tuple(seq), True


def validate_bab(g: Graph, x_a: Iterable[int], x_b: Iterable[int], y: Iterable[int]) -> BabPartition:
    """Validate the clique partition and derive the nesting sequences.

    Raises StructuralError when a set fails to be a clique (naming the missing
    edge), when the sets do not partition V, or when X_a and X_b are disjoint.
    An edge between a private X_a vertex and a private X_b vertex is out of
    scope and raises ScopeError.
    """
    xa = frozenset(x_a)
    xb = frozenset(x_b)
    ys = frozenset(y)
    x_union = xa | xb
    if x_union & ys:
        raise StructuralError(f"X and Y overlap on {_capped(sorted(x_union & ys))}")
    if x_union | ys != frozenset(range(g.n)):
        missing = sorted(frozenset(range(g.n)) - (x_union | ys))
        extra = sorted((x_union | ys) - frozenset(range(g.n)))
        raise StructuralError(
            f"sets do not cover V: missing={_capped(missing)} extra={_capped(extra)}"
        )
    if not xa & xb:
        raise StructuralError("X_a and X_b must intersect")

    for name, members in (("X_a", xa), ("X_b", xb), ("Y", ys)):
        ordered = sorted(members)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1:]:
                if not g.adjacent(u, v):
                    raise StructuralError(f"{name} is not a clique: missing edge ({u},{v})")

    for a in sorted(xa - xb):
        for b in sorted(xb - xa):
            if g.adjacent(a, b):
                raise ScopeError(f"edge ({a},{b}) joins the private sides of X_a and X_b")

    y_mask = mask_of(ys)
    a_seq, a_nested = _nested_sequence(g, xa - xb, y_mask)
    b_seq, b_nested = _nested_sequence(g, xb - xa, y_mask)
    return BabPartition(
        x_a=xa,
        x_b=xb,
        y=ys,
        a_seq=a_seq,
        b_seq=b_seq,
        a_nested=a_nested,
        b_nested=b_nested,
        parts_connected=len(ys) > 0,
        xa_mask=mask_of(xa),
        xb_mask=mask_of(xb),
        y_mask=y_mask,
    )


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
