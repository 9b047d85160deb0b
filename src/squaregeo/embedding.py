"""Order completions, exact axis realizations and plane embeddings.

A linear order on V forces some non-edges to behave like edges on its axis:
{w, z} is forced whenever an edge straddles it. A forced set is one int, a
pair mask with bit u*n + v set for each forced {u, v}, u < v; ``pairs_of``
reads it back as pairs and ``pair_mask`` builds it from checked pairs.
Any order realizes its completion, G plus its forced set, on one axis. Two
orders whose forced sets are disjoint yield an embedding under the max
metric, with the x and y coordinates realizing the completions of the
first and the second order.
An order is a tuple of vertices and an embedding a tuple of (x, y) pairs,
indexed by vertex. Coordinates are Fractions, multiples of 1/(n+1), and
every check is exact: the embedding check compares ints over each axis's
common denominator, or the Fractions themselves where that denominator
would grow too large.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InputError, ScopeError, StructuralError
from .graph import Graph, bits, prefix_masks

Pair = tuple[int, int]


def _reach(g: Graph, seq: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """The prefix masks of ``seq``, ``first`` and ``reach``. ``reach[i]`` is
    the last position of a neighbor of any vertex at positions 0..i, or i
    if later, and ``first[k]`` is L(k), the first position i with
    ``reach[i] >= k``. In the completion of ``seq``, position k is adjacent
    to exactly the other positions of its block L(k)..reach[k]. Two
    pointer sweeps, O(n) mask operations.
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


def completion(g: Graph, o: tuple[int, ...]) -> int:
    """Non-edges {w, z} straddled by some edge u~v with u at or before w and
    z at or before v in o, as a pair mask: bit w*n + z for w < z.

    The vertex w at position k is forced to every non-neighbor in its
    block L(k)..reach[k] (``_reach``). That row of vertices, cut to the
    partners above w and shifted to bits w*n + z, is folded in once per
    vertex, so each pair is set from its lesser end. O(n) mask operations.
    """
    n, adj = g.n, g.adj
    prefix, first, reach = _reach(g, o)
    forced = 0
    for k, w in enumerate(o):
        row = (prefix[reach[k] + 1] ^ prefix[first[k]]) & ~adj[w]
        forced |= row >> (w + 1) << (w * n + w + 1)
    return forced


def pairs_of(mask: int, n: int) -> frozenset[Pair]:
    """The pairs (u, v) of a pair mask over n vertices, bit u*n + v."""
    full = (1 << n) - 1
    pairs = []
    for u in range(n):
        pairs += [(u, v) for v in bits(mask & full)]
        mask >>= n
    return frozenset(pairs)


def pair_mask(pairs: frozenset[Pair], n: int) -> int | None:
    """The pair mask of a set of pairs, or None when some pair is not
    0 <= u < v < n, which no forced set holds. Each id is checked before it
    is shifted, so a hostile id never builds a huge int. One row per u,
    then one shift per row."""
    rows = [0] * n
    for u, v in pairs:
        if not 0 <= u < v < n:
            return None
        rows[u] |= 1 << v
    mask = 0
    for row in reversed(rows):
        mask = mask << n | row
    return mask


@dataclass(frozen=True)
class OrderPair:
    """Two linear orders with their forced non-edge sets as pair masks
    (``completion``); the pair is valid when the masks are disjoint."""

    o1: tuple[int, ...]
    o2: tuple[int, ...]
    c1: int
    c2: int

    @property
    def valid(self) -> bool:
        return not self.c1 & self.c2


def make_order_pair(g: Graph, o1: tuple[int, ...], o2: tuple[int, ...]) -> OrderPair:
    return OrderPair(o1=o1, o2=o2, c1=completion(g, o1), c2=completion(g, o2))


def realize_unit_interval(g: Graph, o: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Exact positions along one axis realizing the completion of any
    order o, G plus ``completion(g, o)``: nondecreasing along o, within 1
    exactly on the completion's edges, each a multiple of 1/(n+1).

    There position k is adjacent to exactly the positions L(k)..k-1 before
    it, L(k) the first i with ``reach[i] >= k`` (``_reach``). So k needs
    two constraints: within 1 of L(k), which by monotonicity bounds its
    other earlier neighbors, and at least 1 + 1/(n+1) past L(k)-1, its
    last earlier non-neighbor. They are feasible for every interval-closed
    order (Corneil et al. 1995). In units of 1/(n+1) the arcs weigh ints,
    0 for monotonicity, n+1 for a neighbor and -(n+2) for a separation,
    and Bellman-Ford solves them, relaxing the arcs from the end of o
    backwards, which takes fewer rounds.

    Exactness: write a weight as a*(n+1) + b, -b the number of separation
    arcs. A simple path among n positions has at most n-1 of them, so two
    paths' b differ by less than n+1, and comparing a*(n+1) + b agrees with
    comparing the pairs (a, b) lexicographically, i.e. with an infinitesimal
    gap in place of 1/(n+1). Both problems pick the same paths and neither
    has a negative cycle. The int solution meets every constraint, so none
    asks for a gap below 1/(n+1). ``embed`` checks the embedding, once.
    """
    n = g.n
    if n == 0:
        return ()
    _, first, _ = _reach(g, o)
    unit = n + 1  # length 1 in steps of 1/(n+1)
    # constraint x_b - x_a <= w stored as (a, b, w)
    arcs: list[tuple[int, int, int]] = []
    for k in range(1, n):
        arcs.append((k, k - 1, 0))
        if first[k] <= k - 1:
            arcs.append((first[k], k, unit))
        if first[k] > 0:
            arcs.append((k, first[k] - 1, -unit - 1))
    arcs.reverse()

    dist = [0] * n
    for _ in range(n + 1):
        changed = False
        for a, b, w in arcs:
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
        if not changed:
            break

    coords = [Fraction(0)] * n
    for k, v in enumerate(o):
        coords[v] = Fraction(dist[k] - dist[0], unit)
    return tuple(coords)


def embed(g: Graph, pair: OrderPair) -> tuple[tuple[Fraction, Fraction], ...]:
    """Plane embedding from a valid order pair: the first order realizes the
    x axis on G plus its forced set, the second the y axis likewise."""
    if not pair.valid:
        raise InputError("order pair invalid: forced sets intersect")
    xs = realize_unit_interval(g, pair.o1)
    ys = realize_unit_interval(g, pair.o2)
    emb = tuple(zip(xs, ys))
    check = verify_embedding(g, emb)
    if not check.ok:
        raise StructuralError(f"embedding check failed on pair {check.violation}")
    return emb


@dataclass(frozen=True)
class EmbeddingCheck:
    ok: bool
    violation: Pair | None = None


def _within_unit(vals: Sequence, unit: int) -> list[int]:
    """``out[v]`` is the mask of vertices whose value is within ``unit`` of
    ``vals[v]``, v included: a two-pointer sweep over the vertices sorted
    by value, reading each window off prefix masks. The values are the
    axis's ints over its common denominator with ``unit`` that denominator,
    or its Fractions themselves with ``unit`` 1 (``verify_embedding``)."""
    n = len(vals)
    by_val = sorted(range(n), key=vals.__getitem__)
    prefix = prefix_masks(by_val)
    out = [0] * n
    lo = hi = 0
    for v in by_val:
        x = vals[v]
        while x - vals[by_val[lo]] > unit:
            lo += 1
        while hi < n and vals[by_val[hi]] - x <= unit:
            hi += 1
        out[v] = prefix[hi] ^ prefix[lo]
    return out


def _near_on_axis(vals: Sequence[Fraction]) -> list[int]:
    """``_within_unit`` on one axis: over its common denominator D, unless
    D passes (n+1) times the largest denominator, then on the Fractions."""
    dens = {x.denominator for x in vals}
    limit = (len(vals) + 1) * max(dens, default=1)
    d = 1
    for den in dens:
        d = lcm(d, den)
        if d > limit:
            return _within_unit(vals, 1)
    return _within_unit([x.numerator * (d // x.denominator) for x in vals], d)


def verify_embedding(g: Graph, coords: tuple[tuple[Fraction, Fraction], ...]) -> EmbeddingCheck:
    """Adjacency iff max-metric distance at most 1, exact comparisons; a
    non-adjacent pair at distance exactly 1 fails.

    Each axis is one sorted sweep (``_within_unit``), on ints where that is
    cheap: with D the lcm of the axis's denominators, x is within 1 of y
    exactly when x*D is within D of y*D, and the sort order is the same.
    D is built one denominator at a time and the build stops once D passes
    (n+1)*m, m the largest denominator on the axis. So every lcm step
    stays at most (n+1)*m^2, and a scaled coordinate x*D has at most
    log2((n+1)*m) more bits than x's numerator: no number grows much
    beyond the input's own. Every coordinate ``embed`` writes is a multiple
    of 1/(n+1), so D divides n+1 and a YES always takes the int path. An
    axis whose D would pass the bound (say, many coprime huge denominators)
    is swept on its Fractions with unit 1, whose comparisons cross-multiply
    only the input's own numbers. Either sweep keeps n masks of n bits, the
    size of the adjacency. u's near set is the meet of its two axis masks;
    the reported violation is the lexicographically first pair (u, v),
    u < v, where it differs from ``adj[u]``. O(n log n) comparisons plus
    O(n) mask operations.
    """
    if len(coords) != g.n:
        raise InputError("coordinate count differs from vertex count")
    near_x = _near_on_axis([x for x, _ in coords])
    near_y = _near_on_axis([y for _, y in coords])
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


def unavoidable_sets(g: Graph) -> list[int]:
    """Pair masks that every order's forced set meets: the two chords of
    each induced 4-cycle and the three leaf pairs of each induced claw
    (``brute_force_orders`` proves both). Both shapes are the obstructions
    of a unit interval graph, which is chordal and claw-free (Roberts 1969).
    Each 4-cycle is found from both of its chords; the set keeps it once.
    """
    n, adj = g.n, g.adj
    found = set()
    for a in range(n):
        for c in bits(~adj[a] & ((1 << n) - 1) >> (a + 1) << (a + 1)):
            common = adj[a] & adj[c]
            for b in bits(common):
                for d in bits(common & ~adj[b] >> (b + 1) << (b + 1)):
                    found.add(1 << (a * n + c) | 1 << (b * n + d))
    for u in range(n):
        for x in bits(adj[u]):
            rest = adj[u] & ~adj[x] >> (x + 1) << (x + 1)
            for y in bits(rest):
                for z in bits(rest & ~adj[y] >> (y + 1) << (y + 1)):
                    found.add(1 << (x * n + y) | 1 << (x * n + z) | 1 << (y * n + z))
    return list(found)


def brute_force_orders(g: Graph, bound: int = 6) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Exhaustive search for two orders with disjoint forced sets.

    Each order's forced set is one pair mask, {u, v} (u < v) at bit
    u*n + v: the very int ``completion`` returns for that order. A non-edge
    is forced exactly when some edge spans it, and among the edges whose
    later end is v, the one to v's earliest neighbor spans all the others.
    So placing v at position k forces exactly the non-edges inside
    positions p..k, p the position of v's earliest placed neighbor, and
    the OR over those windows of ``ne[S]``, the non-edges inside vertex
    set S, is ``completion``'s mask. ``ne`` is filled on demand,
    so nothing of size 2^n is built up front.

    Reversing an order leaves its forced set unchanged, so only orders no
    larger than their reversal are scanned; for n >= 2 that is
    ``perm[0] < perm[-1]``. Only the first order of each distinct forced
    set is kept, so memory grows with the number of distinct sets, not with
    n!. The answer is the first distinct set, in the lexicographic order of
    the scan, that has a disjoint partner, with that set's first partner.
    Scope-guarded since the search is factorial.

    Stop rule. The *candidate* is the earliest distinct set not yet shown
    to have no partner; every earlier set holds a whole unavoidable set
    (``unavoidable_sets``). Each order's forced set meets every unavoidable
    set, so a set that holds one meets every forced set and has no partner.
    A new set m that misses the candidate c is c's first partner: each set
    seen between them met c on arrival, and c met itself, so the search
    returns (c, m). With no candidate, m meets every earlier set, so it is
    its own partner only when it is empty, and otherwise it is ruled out
    or becomes the candidate. If the scan ends with a candidate, it has no
    partner; the sets after it are paired as before, each only against
    later sets: a disjoint earlier set would have been the answer, and
    none is empty, as an empty set misses the candidate. The unavoidable
    sets are built at the first non-empty set.

    Why every order forces one pair of each unavoidable set:
    - Induced 4-cycle a-b-c-d, chords {a, c} and {b, d}. Take the first
      and the last of its four vertices in the order. If they are
      opposite, say a first and c last, then b and d lie between them,
      both adjacent to a, and the edge from a to the later of b and d
      spans the other chord. If they are adjacent, the edge between them
      spans the two middle vertices and so both chords.
    - Induced claw, center u, leaves at positions l1 < l2 < l3. If u comes
      before l2, the edge u-l3 spans {l2, l3}; otherwise u comes after l2
      and the edge l1-u spans {l1, l2}.
    """
    n = g.n
    if n > bound:
        raise ScopeError(f"brute force limited to {bound} vertices, got {n}")
    if n == 0:
        return ((), ())
    adj = g.adj
    vertex_bit = [1 << v for v in range(n)]
    ne = _NonEdgesIn(g)

    first: dict[int, tuple[int, ...]] = {}  # each distinct forced set's first order
    candidate = None  # its mask; None while every set so far is ruled out
    unavoidable = None
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
        if mask in first:
            continue
        first[mask] = perm
        if candidate is not None:
            if not mask & candidate:
                return (first[candidate], perm)
        elif not mask:
            return (perm, perm)
        else:
            if unavoidable is None:
                unavoidable = unavoidable_sets(g)
            if not any(u & mask == u for u in unavoidable):
                candidate = mask

    if candidate is None:
        return None
    masks = list(first)
    rest = masks[masks.index(candidate) + 1:]
    for i, mask in enumerate(rest):
        for other in rest[i + 1:]:
            if mask & other == 0:
                return (first[mask], first[other])
    return None
