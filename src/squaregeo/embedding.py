"""Order completions, exact axis realizations and plane embeddings.

A linear order on V forces some non-edges to behave like edges on its axis:
{w, z} is forced whenever an edge straddles it. A forced set is one int, a
pair mask with bit u*n + v set for each forced {u, v}, u < v. Certificates
keep it as it is; only their text format spells out the pairs.
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

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InputError, ScopeError, StructuralError, _echo
from .graph import Graph, bits, prefix_masks


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
    violation: tuple[int, int] | None = None


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


class _Windows(dict):
    """``win[S]``: the non-edges {u, v} (u < v) inside vertex mask S, as bits
    u*n + v, and the listed sets that meet them; each entry is computed on
    first use."""

    def __init__(self, g: Graph, sets: list[int]):
        super().__init__()
        self.g = g
        self.sets = sets

    def __missing__(self, s: int) -> tuple[int, list[int]]:
        adj, n = self.g.adj, self.g.n
        m = 0
        for u in bits(s):
            m |= (s & ~adj[u]) >> (u + 1) << (u * n + u + 1)
        self[s] = entry = (m, [u for u in self.sets if u & m])
        return entry


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


def _clean_orders(g: Graph, win: _Windows, avoid: int = 0, start: int = 0):
    """The orders of ``brute_force_orders``'s scan that start at vertex
    ``start`` or later and whose forced set holds no set of ``win.sets``
    and misses ``avoid``, as (order, pair mask), by a depth-first search
    over order prefixes in lexicographic order: one frame, no call per
    prefix.

    Only orders with ``perm[0] < perm[-1]`` (n >= 2) are reached: a prefix
    whose unplaced vertices all lie below its first is cut. Placing v
    ORs one window into the prefix's mask (``win[S]``, S the vertices
    from v's earliest placed neighbor to v). Rule (a) cuts a prefix whose
    mask holds a whole listed set; only the sets that meet the window can
    have become whole. Rule (b) cuts a prefix whose mask meets ``avoid``.
    """
    n, adj = g.n, g.adj
    full = (1 << n) - 1
    seq = [0] * n
    prefixes = [0] * (n + 1)  # prefixes[i]: the vertices at positions 0..i-1
    masks = [0] * (n + 1)     # masks[i]: the forced set of positions 0..i-1
    todo = [0] * (n + 1)      # todo[i]: the vertices still to try at position i
    # no order starts with its largest vertex, nor below start
    todo[0] = (full >> 1 if n > 1 else full) >> start << start
    later = 0  # the vertices above seq[0]: one of them must come last
    k = 0
    while True:
        t = todo[k]
        if not t:
            if not k:
                return
            k -= 1
            continue
        low = t & -t
        todo[k] = t ^ low
        v = low.bit_length() - 1
        placed = prefixes[k]
        now = placed | low
        rest = full ^ now
        if not k:
            later = rest >> v << v
        elif rest and not rest & later:
            continue
        mask = masks[k]
        nb = adj[v] & placed
        if nb:
            p = 0  # the position of v's earliest placed neighbor
            while not prefixes[p + 1] & nb:
                p += 1
            window, sets = win[now ^ prefixes[p]]
            new = window & ~mask
            if new:
                if new & avoid:  # rule (b)
                    continue
                mask |= new
                for u in sets:  # a loop, not any(): this is the hot path
                    if u & mask == u:
                        break
                else:
                    u = 0
                if u:  # rule (a): the mask holds u
                    continue
        seq[k] = v
        k += 1
        prefixes[k] = now
        masks[k] = mask
        if k < n:
            todo[k] = rest
            continue
        k -= 1
        yield tuple(seq), mask


def brute_force_orders(g: Graph, bound: int = 6) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Exhaustive search for two orders with disjoint forced sets.

    Each order's forced set is one pair mask, {u, v} (u < v) at bit
    u*n + v: the very int ``completion`` returns for that order. A non-edge
    is forced exactly when some edge spans it, and among the edges whose
    later end is v, the one to v's earliest neighbor spans all the others.
    So placing v at position k forces exactly the non-edges inside
    positions p..k, p the position of v's earliest placed neighbor, and
    the OR over those windows of the non-edges inside each (``_Windows``,
    filled on demand, so nothing of size 2^n is built up front) is
    ``completion``'s mask. The OR grows along an order, so each prefix has
    a mask, and every order below the prefix forces at least that mask.

    Reversing an order leaves its forced set unchanged, so only orders with
    ``perm[0] < perm[-1]`` (for n >= 2) are scanned. The answer is defined
    by a flat scan of those orders in lexicographic order: the first
    distinct forced set that has a disjoint partner, with the first order
    of that set and of its first partner. Scope-guarded since the search
    is factorial. The search below returns the same pair, visiting order
    prefixes depth first in the same order (``_clean_orders``), and keeps
    one order per distinct forced set.

    The flat scan. Every order's forced set meets every unavoidable set
    (``unavoidable_sets``), so a set that holds one meets every forced set
    and has no partner; it is *ruled out*. The *candidate* c is the
    earliest set not ruled out. An empty c is its own partner. Otherwise a
    later set m that misses c is c's first partner, since each set seen
    between them met c or was ruled out. If no set misses c, c has no
    partner; the sets after it are paired, each only against later sets:
    a disjoint earlier set would have been the answer.

    (a) Ruled-out prefix. A prefix whose mask holds an unavoidable set
    leads only to ruled-out sets, so its subtree is skipped. Such a set is
    never the candidate, never a partner of any set (a partner misses a
    forced set, and this set meets them all) and so never in the pairing
    after the scan. The first order reached is then the candidate's first
    order: every order before it is ruled out.

    (b) Candidate fixed. Once c is fixed and non-empty, the scan pauses at
    c's order and a second search looks for c's partner. It also skips
    every prefix whose mask meets c: such a prefix leads only to sets that
    meet c, none of them c's partner. Every order before c's holds an
    unavoidable set, so it meets c, and c's own order meets c. So the first
    order the partner search reaches is the first order after c's that
    misses c: the flat scan's first partner, with the first order of its
    set. The partner search starts at c's first vertex, which skips only
    orders before c's, and rule (b) would cut those anyway. If it reaches
    no order, the pairing needs every set after c: the paused scan runs on
    with rule (a) only.

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
        raise ScopeError(f"brute force limited to {_echo(bound, str)} vertices, got {n}")
    if n == 0:
        return ((), ())
    win = _Windows(g, unavoidable_sets(g))
    scan = _clean_orders(g, win)
    first = next(scan, None)
    if first is None:
        return None
    perm, candidate = first
    if not candidate:
        return (perm, perm)
    partner = next(_clean_orders(g, win, candidate, perm[0]), None)
    if partner is not None:
        return (perm, partner[0])
    orders = {candidate: perm}  # each distinct set after c, with its first order
    for perm, mask in scan:
        orders.setdefault(mask, perm)
    rest = list(orders)[1:]
    for i, mask in enumerate(rest):
        for other in rest[i + 1:]:
            if mask & other == 0:
                return (orders[mask], orders[other])
    return None
