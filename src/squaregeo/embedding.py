"""Order completions, disjointness verification and exact plane embeddings.

A linear order on V forces some non-edges to behave like edges on its axis:
{w, z} is forced whenever an edge straddles it. Two orders whose forced sets
are disjoint yield an embedding under the max metric, with the x coordinates
realizing the first augmented graph and the y coordinates the second. All
coordinates are Fractions and every check is an exact comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError, ScopeError, StructuralError
from .graph import Graph, bits, is_unit_interval_order, prefix_masks
from .orders import LinearOrder

Pair = tuple[int, int]


def completion(g: Graph, o: LinearOrder) -> frozenset[Pair]:
    """Non-edges {w, z} straddled by some edge u~v with u at or before w and
    z at or before v in o.

    One sweep along o keeps ``reach``, the farthest position of a neighbor
    of any vertex at or before the current position i; the vertex w at i is
    forced to every non-neighbor at positions i+1..reach, read off prefix
    masks. Each pair is emitted once, from its earlier vertex, as
    (min, max). O(n) mask operations on n-bit integers plus the output.
    """
    seq = o.seq
    n = len(seq)
    prefix = prefix_masks(seq)
    forced = []
    seen = 0  # neighbors of the vertices at positions 0..i
    reach = 0
    for i, w in enumerate(seq):
        seen |= g.adj[w]
        reach = max(reach, i)
        while reach + 1 < n and seen & ~prefix[reach + 1]:
            reach += 1
        for z in bits((prefix[reach + 1] ^ prefix[i + 1]) & ~g.adj[w]):
            forced.append((w, z) if w < z else (z, w))
    return frozenset(forced)


def covering_edge(g: Graph, o: LinearOrder, w: int, z: int) -> Pair | None:
    """Lexicographically first edge witnessing that {w, z} is forced by o."""
    pw, pz = sorted((o.rank[w], o.rank[z]))
    for u, v in g.edges():
        lo, hi = sorted((o.rank[u], o.rank[v]))
        if lo <= pw and pz <= hi:
            return (u, v)
    return None


@dataclass(frozen=True)
class OrderPair:
    """Two linear orders with their forced non-edge sets."""

    o1: LinearOrder
    o2: LinearOrder
    c1: frozenset[Pair]
    c2: frozenset[Pair]

    @property
    def valid(self) -> bool:
        return not (self.c1 & self.c2)


def make_order_pair(g: Graph, o1: LinearOrder, o2: LinearOrder) -> OrderPair:
    return OrderPair(o1=o1, o2=o2, c1=completion(g, o1), c2=completion(g, o2))


@dataclass(frozen=True)
class OrderCheck:
    ok: bool
    conflict: Pair | None = None
    witness1: Pair | None = None
    witness2: Pair | None = None


def verify_orders(g: Graph, o1: LinearOrder, o2: LinearOrder) -> OrderCheck:
    """Disjointness of the two forced sets; a failure reports the first
    shared non-edge and a straddling edge from each order."""
    overlap = completion(g, o1) & completion(g, o2)
    if not overlap:
        return OrderCheck(ok=True)
    w, z = min(overlap)
    return OrderCheck(
        ok=False,
        conflict=(w, z),
        witness1=covering_edge(g, o1, w, z),
        witness2=covering_edge(g, o2, w, z),
    )


def realize_unit_interval(g_aug: Graph, o: LinearOrder) -> tuple[Fraction, ...]:
    """Exact positions along one axis for an interval-closed graph and order.

    Positions are nondecreasing along o, adjacent vertices sit within 1 and
    non-adjacent ones strictly further apart. Each vertex needs only two
    couplings: to its last non-neighbor predecessor (distance at least 1
    plus a gap unit) and to the vertex right after it (distance at most 1,
    which bounds all later neighbor predecessors by monotonicity). The
    resulting difference constraints are solved exactly over values of the
    form a + b*gap, by Bellman-Ford on integer pairs (a, b), and the gap
    is fixed afterwards to a rational small enough for every constraint.
    The couplings come from one sweep of prefix masks along o. The result
    is not re-checked here: the caller, ``embed``, checks the finished
    embedding exactly, once.
    """
    n = g_aug.n
    if n == 0:
        return ()
    if not is_unit_interval_order(g_aug, o.seq):
        raise StructuralError(
            "order does not admit a unit interval realization of the augmented graph"
        )
    # constraint x_b - x_a <= (wa + wb*gap) stored as (a, b, wa, wb)
    arcs: list[tuple[int, int, int, int]] = []
    prefix = prefix_masks(o.seq)
    for k in range(1, n):
        arcs.append((k, k - 1, 0, 0))
        # the order passed the test above, so the neighbors before k are
        # exactly the positions first_near..k-1
        first_near = k - (g_aug.adj[o.seq[k]] & prefix[k]).bit_count()
        if first_near <= k - 1:
            arcs.append((first_near, k, 1, 0))
        if first_near > 0:
            arcs.append((k, first_near - 1, -1, -1))

    # every weight is an integer, so the distances stay integral
    dist = [(0, 0)] * n
    for _ in range(n + 1):
        changed = False
        for a, b, wa, wb in arcs:
            cand = (dist[a][0] + wa, dist[a][1] + wb)
            if cand < dist[b]:
                dist[b] = cand
                changed = True
        if not changed:
            break
    else:
        raise StructuralError("cyclic separation demands; no realization")

    gap = Fraction(1, n + 1)
    for a, b, wa, wb in arcs:
        slack = wa - (dist[b][0] - dist[a][0])
        over = (dist[b][1] - dist[a][1]) - wb
        if slack > 0 and over > 0 and Fraction(slack, over) < gap:
            gap = Fraction(slack, over)
    base_a, base_b = dist[0]
    coords = [Fraction(0)] * n
    for k in range(n):
        a, b = dist[k]
        coords[o.seq[k]] = (a - base_a) + (b - base_b) * gap
    return tuple(coords)


@dataclass(frozen=True)
class Embedding:
    """Exact plane coordinates indexed by vertex."""

    coords: tuple[tuple[Fraction, Fraction], ...]

    def x(self, v: int) -> Fraction:
        return self.coords[v][0]

    def y(self, v: int) -> Fraction:
        return self.coords[v][1]


def embed(g: Graph, pair: OrderPair) -> Embedding:
    """Plane embedding from a valid order pair: the first order realizes the
    x axis on G plus its forced set, the second the y axis likewise."""
    if not pair.valid:
        raise InputError("order pair invalid: forced sets intersect")
    g1 = g.with_edges(pair.c1)
    g2 = g.with_edges(pair.c2)
    xs = realize_unit_interval(g1, pair.o1)
    ys = realize_unit_interval(g2, pair.o2)
    emb = Embedding(coords=tuple(zip(xs, ys)))
    check = verify_embedding(g, emb)
    if not check.ok:
        raise StructuralError(f"embedding check failed on pair {check.violation}")
    return emb


@dataclass(frozen=True)
class EmbeddingCheck:
    ok: bool
    violation: Pair | None = None


def _within_one(vals: Sequence[Fraction]) -> list[int]:
    """``out[v]`` is the mask of vertices whose value is within 1 of
    ``vals[v]``, v included: a two-pointer sweep over the vertices sorted
    by value, reading each window off prefix masks."""
    n = len(vals)
    by_val = sorted(range(n), key=vals.__getitem__)
    prefix = prefix_masks(by_val)
    out = [0] * n
    lo = hi = 0
    for v in by_val:
        x = vals[v]
        while x - vals[by_val[lo]] > 1:
            lo += 1
        while hi < n and vals[by_val[hi]] - x <= 1:
            hi += 1
        out[v] = prefix[hi] ^ prefix[lo]
    return out


def verify_embedding(g: Graph, e: Embedding) -> EmbeddingCheck:
    """Adjacency iff max-metric distance at most 1, exact comparisons; a
    non-adjacent pair at distance exactly 1 fails.

    Each axis is one sorted sweep (``_within_one``) that compares the
    coordinates themselves, exactly, without scaling them to a common
    denominator: no number grows beyond the input's own coordinates, and
    the sweep keeps n masks of n bits, the size of the adjacency. u's near
    set is the meet of its two axis masks; the reported violation is the
    lexicographically first pair (u, v), u < v, where it differs from
    ``adj[u]``. O(n log n) comparisons plus O(n) mask operations.
    """
    if len(e.coords) != g.n:
        raise InputError("coordinate count differs from vertex count")
    near_x = _within_one([x for x, _ in e.coords])
    near_y = _within_one([y for _, y in e.coords])
    for u in range(g.n):
        wrong = (near_x[u] & near_y[u] ^ g.adj[u]) >> (u + 1)
        if wrong:
            return EmbeddingCheck(ok=False, violation=(u, u + (wrong & -wrong).bit_length()))
    return EmbeddingCheck(ok=True)


class _NonEdgesIn(dict):
    """``ne[S]``: the non-edges {u, v} (u < v) inside vertex mask S, as bits
    u*n + v; each entry is computed on first use."""

    def __init__(self, g: Graph):
        super().__init__()
        self.g = g

    def __missing__(self, s: int) -> int:
        adj, n = self.g.adj, self.g.n
        m = 0
        for u in bits(s):
            m |= (s & ~adj[u]) >> (u + 1) << (u * n + u + 1)
        self[s] = m
        return m


def brute_force_orders(g: Graph, bound: int = 6) -> tuple[LinearOrder, LinearOrder] | None:
    """Exhaustive search for two orders with disjoint forced sets.

    Each order's forced set is one int over pair bits, {u, v} (u < v) at
    bit u*n + v. A non-edge is forced exactly when some edge spans it, and
    among the edges whose later end is v, the one to v's earliest neighbor
    spans all the others. So placing v at position k forces exactly the
    non-edges inside positions p..k, p the position of v's earliest placed
    neighbor, and the OR over those windows of ``ne[S]``, the non-edges
    inside vertex set S, equals ``completion``. ``ne`` is filled on demand,
    so nothing of size 2^n is built up front.

    Reversing an order leaves its forced set unchanged, so only orders no
    larger than their reversal are scanned; for n >= 2 that is
    ``perm[0] < perm[-1]``. Whether a forced set has a disjoint partner is
    decided once per distinct set. The returned pair is the first
    candidate order with a partner and its first partner, in the
    lexicographic order of the scan. Scope-guarded since the search is
    factorial.
    """
    n = g.n
    if n > bound:
        raise ScopeError(f"brute force limited to {bound} vertices, got {n}")
    if n == 0:
        empty = LinearOrder.from_seq(())
        return (empty, empty)
    adj = g.adj
    vertex_bit = [1 << v for v in range(n)]
    ne = _NonEdgesIn(g)

    perms: list[tuple[int, ...]] = []
    masks: list[int] = []
    for perm in itertools.permutations(range(n)):
        if perm[0] > perm[-1]:
            continue
        mask = placed = 0
        prefixes = [0]  # prefixes[i]: the vertices at positions 0..i-1
        for v in perm:
            nb = adj[v] & placed
            placed |= vertex_bit[v]
            if nb:
                p = 0  # the position of v's earliest placed neighbor
                while not prefixes[p + 1] & nb:
                    p += 1
                mask |= ne[placed ^ prefixes[p]]
            prefixes.append(placed)
        perms.append(perm)
        masks.append(mask)

    distinct = set(masks)
    has_partner: dict[int, bool] = {}
    for perm, mask in zip(perms, masks):
        if mask not in has_partner:
            has_partner[mask] = any(mask & other == 0 for other in distinct)
        if has_partner[mask]:
            perm2 = next(p2 for p2, m2 in zip(perms, masks) if mask & m2 == 0)
            return (LinearOrder.from_seq(perm), LinearOrder.from_seq(perm2))
    return None
