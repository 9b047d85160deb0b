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

from .chords import RigidPair, enumerate_rigid_pairs
from .errors import InputError, ScopeError, StructuralError
from .graph import BabPartition, Graph, is_unit_interval_order
from .orders import LinearOrder

Pair = tuple[int, int]


def completion(g: Graph, o: LinearOrder) -> frozenset[Pair]:
    """Non-edges {w, z} straddled by some edge u~v with u at or before w and
    z at or before v in o. Computed with a prefix maximum over edge spans."""
    n = g.n
    pos = o.rank
    cover = [-1] * n
    for u, v in g.edges():
        lo, hi = sorted((pos[u], pos[v]))
        if hi > cover[lo]:
            cover[lo] = hi
    for i in range(1, n):
        if cover[i - 1] > cover[i]:
            cover[i] = cover[i - 1]
    forced = []
    for w, z in g.non_edges():
        pw, pz = sorted((pos[w], pos[z]))
        if cover[pw] >= pz:
            forced.append((w, z))
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


@dataclass(frozen=True)
class ChordSplit:
    rigid: RigidPair
    in_first: Pair | None
    in_second: Pair | None

    @property
    def ok(self) -> bool:
        return (
            self.in_first is not None
            and self.in_second is not None
            and self.in_first != self.in_second
        )


@dataclass(frozen=True)
class ChordDistribution:
    splits: tuple[ChordSplit, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.splits)


def chord_distribution(g: Graph, p: BabPartition, pair: OrderPair) -> ChordDistribution:
    """For each rigid pair, which forced set holds which of its two chords.

    With disjoint forced sets each rigid pair must contribute exactly one
    chord to each side; a split with a missing or doubled side is flagged.
    """
    if not pair.valid:
        raise InputError("order pair invalid: forced sets intersect")
    splits = []
    for rp in enumerate_rigid_pairs(g, p):
        chords = [tuple(sorted(ch)) for ch in rp.chords]
        first = [ch for ch in chords if ch in pair.c1]
        second = [ch for ch in chords if ch in pair.c2]
        splits.append(
            ChordSplit(
                rigid=rp,
                in_first=first[0] if len(first) == 1 else None,
                in_second=second[0] if len(second) == 1 else None,
            )
        )
    return ChordDistribution(splits=tuple(splits))


def realize_unit_interval(g_aug: Graph, o: LinearOrder) -> tuple[Fraction, ...]:
    """Exact positions along one axis for an interval-closed graph and order.

    Positions are nondecreasing along o, adjacent vertices sit within 1 and
    non-adjacent ones strictly further apart. Each vertex needs only two
    couplings: to its last non-neighbor predecessor (distance at least 1
    plus a gap unit) and to the vertex right after it (distance at most 1,
    which bounds all later neighbor predecessors by monotonicity). The
    resulting difference constraints are solved exactly over values of the
    form a + b*gap, and the gap is fixed afterwards to a rational small
    enough for every constraint. The result is not re-checked here: the
    caller, ``embed``, checks the finished embedding exactly, once.
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
    for k in range(1, n):
        arcs.append((k, k - 1, 0, 0))
        vk = g_aug.adj[o.seq[k]]
        last_non = None
        for j in range(k - 1, -1, -1):
            if not (vk >> o.seq[j]) & 1:
                last_non = j
                break
        first_near = 0 if last_non is None else last_non + 1
        if first_near <= k - 1:
            arcs.append((first_near, k, 1, 0))
        if last_non is not None:
            arcs.append((k, last_non, -1, -1))

    dist = [(Fraction(0), 0)] * n
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
        if slack > 0 and over > 0 and slack / over < gap:
            gap = slack / over
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


def verify_embedding(g: Graph, e: Embedding) -> EmbeddingCheck:
    """Adjacency iff max-metric distance at most 1, exact comparisons; a
    non-adjacent pair at distance exactly 1 fails."""
    if len(e.coords) != g.n:
        raise InputError("coordinate count differs from vertex count")
    for u in range(g.n):
        xu, yu = e.coords[u]
        for v in range(u + 1, g.n):
            xv, yv = e.coords[v]
            near = abs(xu - xv) <= 1 and abs(yu - yv) <= 1
            if near != g.adjacent(u, v):
                return EmbeddingCheck(ok=False, violation=(u, v))
    return EmbeddingCheck(ok=True)


def brute_force_orders(g: Graph, bound: int = 6) -> tuple[LinearOrder, LinearOrder] | None:
    """Exhaustive search for two orders with disjoint forced sets.

    Reversing an order leaves its forced set unchanged, so only orders that
    are lexicographically no larger than their reversal are scanned; the
    returned pair is still the lexicographically first among all candidates.
    Scope-guarded since the search is factorial.
    """
    if g.n > bound:
        raise ScopeError(f"brute force limited to {bound} vertices, got {g.n}")
    if g.n == 0:
        empty = LinearOrder.from_seq(())
        return (empty, empty)
    non_edges = g.non_edges()
    index = {pair: i for i, pair in enumerate(non_edges)}

    reps: list[tuple[tuple[int, ...], int]] = []
    for perm in itertools.permutations(range(g.n)):
        if perm > perm[::-1]:
            continue
        o = LinearOrder.from_seq(perm)
        mask = 0
        for pair in completion(g, o):
            mask |= 1 << index[pair]
        reps.append((perm, mask))

    all_masks = {mask for _, mask in reps}
    for perm, mask in reps:
        if any(mask & other == 0 for other in all_masks):
            o1 = LinearOrder.from_seq(perm)
            for perm2, mask2 in reps:
                if mask & mask2 == 0:
                    return (o1, LinearOrder.from_seq(perm2))
    return None
