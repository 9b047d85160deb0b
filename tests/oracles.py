"""Slow reference implementations the tests cross-check the package against.

Everything here recomputes results from raw definitions: direct scans,
exhaustive permutation search and a discretized geometric search. Nothing
imports the package's algorithmic paths beyond the plain data containers,
except the verbatim copies of earlier package versions at the end of the
file, which call what they called then.
"""

from __future__ import annotations

import heapq
import itertools
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

from squaregeo.chords import AbVertexSets, ChordGraph, RigidPair
from squaregeo.embedding import EmbeddingCheck, completion, verify_embedding
from squaregeo.errors import InputError, OrderConstructionError, ParseError, ScopeError, StructuralError, _echo
from squaregeo.graph import (
    BabPartition,
    Graph,
    bits,
    build_graph,
    check_cover,
    is_unit_interval_order,
    lowest,
    mask_of,
    nx_mask,
    ny_mask,
    prefix_masks,
    validate_bab,
)
from squaregeo.instances import INSTANCE_HEADER
from squaregeo.necessary import ColoringRefutation, TwoColoring, _layer_masks, _shortest_odd_cycle
from squaregeo.orders import PartialOrderCheck
from squaregeo.pipeline import NO, UNDECIDED, YES, Certificate, CertificateCheck


def non_edges(g: Graph) -> list[tuple[int, int]]:
    """All non-adjacent unordered pairs, lexicographically."""
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.adjacent(u, v):
                out.append((u, v))
    return out


def pairs_of(mask: int, n: int) -> frozenset[tuple[int, int]]:
    """The pairs (u, v) of a pair mask, bit u*n + v, read bit by bit."""
    return frozenset(divmod(b, n) for b in range(n * n) if mask >> b & 1)


def mask_of_pairs(pairs, n: int) -> int:
    """The pair mask of pairs (u, v), one bit u*n + v each."""
    return sum(1 << (u * n + v) for u, v in set(pairs))


def scan_completion(g: Graph, seq) -> frozenset[tuple[int, int]]:
    """Forced non-edges by scanning every edge for a covering witness."""
    pos = {v: i for i, v in enumerate(seq)}
    forced = set()
    for w, z in non_edges(g):
        pw, pz = sorted((pos[w], pos[z]))
        for u, v in g.edges():
            lo, hi = sorted((pos[u], pos[v]))
            if lo <= pw and pz <= hi:
                forced.add((w, z))
                break
    return frozenset(forced)


def unavoidable_sets_by_definition(g: Graph) -> frozenset[int]:
    """The chord pair of every induced 4-cycle and the leaf pairs of every
    induced claw, as pair masks. 4-cycles come from every vertex 4-tuple
    a-b-c-d with its four edges present and both chords missing; claws from
    every center and every 3-subset of its neighbors with no edge inside."""
    out = set()
    for a, b, c, d in permutations(range(g.n), 4):
        sides = (a, b), (b, c), (c, d), (d, a)
        if all(g.adjacent(*e) for e in sides) and not g.adjacent(a, c) and not g.adjacent(b, d):
            out.add(mask_of_pairs([tuple(sorted((a, c))), tuple(sorted((b, d)))], g.n))
    for u in range(g.n):
        nbrs = [v for v in range(g.n) if g.adjacent(u, v)]
        for leaves in combinations(nbrs, 3):
            leaf_pairs = list(combinations(leaves, 2))
            if not any(g.adjacent(*e) for e in leaf_pairs):
                out.add(mask_of_pairs(leaf_pairs, g.n))
    return frozenset(out)


def rigid_pairs_by_definition(g: Graph, p: BabPartition):
    """Induced 4-cycles x1-y1-y2-x2 with both diagonals missing, scanned
    over every vertex 4-tuple. Returned as ((x1, y1), (x2, y2)) with x1 < x2."""
    found = set()
    xs = list(bits(p.x_all))
    ys = list(bits(p.y))
    for x1, x2 in combinations(xs, 2):
        if not g.adjacent(x1, x2):
            continue
        for y1 in ys:
            for y2 in ys:
                if y1 == y2:
                    continue
                cycle = g.adjacent(x1, y1) and g.adjacent(x2, y2)
                diagonals_absent = not g.adjacent(x1, y2) and not g.adjacent(x2, y1)
                if cycle and diagonals_absent:
                    found.add(((x1, y1), (x2, y2)))
    return found


def chord_nodes_by_definition(g: Graph, p: BabPartition):
    return sorted(
        (x, y)
        for x in bits(p.x_all)
        for y in bits(p.y)
        if not g.adjacent(x, y)
    )


def chord_adjacent_by_definition(g: Graph, u, v) -> bool:
    """Two X-Y non-edges (x,y), (x',y') linked iff x~x', x~y' and x'~y."""
    (x, y), (xp, yp) = u, v
    if x == xp:
        return False
    return g.adjacent(x, xp) and g.adjacent(x, yp) and g.adjacent(xp, y)


def umbrella_ok(g: Graph, seq) -> bool:
    """Three-point condition: an edge over a middle vertex forces both hops."""
    n = len(seq)
    for i in range(n):
        for k in range(i + 2, n):
            if not g.adjacent(seq[i], seq[k]):
                continue
            for j in range(i + 1, k):
                if not g.adjacent(seq[i], seq[j]) or not g.adjacent(seq[j], seq[k]):
                    return False
    return True


def unit_interval_by_search(g: Graph) -> bool:
    return any(umbrella_ok(g, perm) for perm in permutations(range(g.n)))


def square_geometric_by_order_search(g: Graph) -> bool:
    """Dumb search over all order pairs, no symmetry pruning."""
    perms = list(permutations(range(g.n)))
    masks = {}
    index = {pair: i for i, pair in enumerate(non_edges(g))}
    for perm in perms:
        m = 0
        for pair in scan_completion(g, perm):
            m |= 1 << index[pair]
        masks[perm] = m
    return any(masks[p1] & masks[p2] == 0 for p1 in perms for p2 in perms)


@lru_cache(maxsize=None)
def _axis_masks(n: int) -> tuple[int, ...]:
    """Adjacency masks (over position pairs) achievable on one axis with
    consecutive gaps from {0, 1/10, ..., 11/10}. A gap exceeding the
    threshold can always be clipped to 11/10, so the grid is exhaustive
    for the separations that matter."""
    pair_bit = {pq: i for i, pq in enumerate(combinations(range(n), 2))}
    vals = [Fraction(k, 10) for k in range(12)]
    masks = set()
    for gaps in product(vals, repeat=n - 1):
        pos = [Fraction(0)]
        for gp in gaps:
            pos.append(pos[-1] + gp)
        m = 0
        for (a, b), i in pair_bit.items():
            if pos[b] - pos[a] <= 1:
                m |= 1 << i
        masks.add(m)
    return tuple(sorted(masks))


@lru_cache(maxsize=None)
def _vertex_masks(n: int) -> tuple[int, ...]:
    """_axis_masks pushed through every vertex-to-position assignment."""
    pair_bit = {pq: i for i, pq in enumerate(combinations(range(n), 2))}
    out = set()
    for perm in permutations(range(n)):
        rank = {v: i for i, v in enumerate(perm)}
        for m in _axis_masks(n):
            vm = 0
            for (u, v), i in pair_bit.items():
                a, b = sorted((rank[u], rank[v]))
                src = pair_bit[(a, b)]
                if (m >> src) & 1:
                    vm |= 1 << i
            out.add(vm)
    return tuple(sorted(out))


def square_geometric_by_grid(g: Graph) -> bool:
    """Direct geometric search: two axis placements whose adjacency masks
    intersect to exactly the edge set."""
    pair_bit = {pq: i for i, pq in enumerate(combinations(range(g.n), 2))}
    emask = 0
    for e in g.edges():
        emask |= 1 << pair_bit[e]
    supersets = [m for m in _vertex_masks(g.n) if m & emask == emask]
    return any(m1 & m2 == emask for m1 in supersets for m2 in supersets)


def bipartite_by_bfs(adj_masks) -> bool:
    """2-colorability of a graph given as bitmask adjacency, all components."""
    n = len(adj_masks)
    color = [None] * n
    for s in range(n):
        if color[s] is None:
            color[s] = 0
            queue = [s]
            while queue:
                v = queue.pop()
                for w in range(n):
                    if not (adj_masks[v] >> w) & 1:
                        continue
                    if color[w] is None:
                        color[w] = 1 - color[v]
                        queue.append(w)
                    elif color[w] == color[v]:
                        return False
    return True


def completion_closure_violations(g, seq, comp, p=None):
    """Audit the closure facts a covering-style forced set must satisfy.

    ``seq`` is a linear order of the vertices, ``comp`` a set of sorted
    non-edge tuples. The five checks, each fully quantified:

    1. two neighbors of z straddle w  ->  wz forced
    2. a non-forced non-edge uw admits no neighbor of w on the far
       side of u (otherwise u and w would be forced apart)
    3. with a block partition: an X vertex between two Y vertices is
       forced against every Y non-neighbor, and a Y vertex between two
       shared X vertices against every shared non-neighbor
    4. a neighbor of z before w plus a neighbor of w before z  ->  wz
       forced (and symmetrically on the right)
    5. one edge spanning (before w, after z) plus one spanning
       (before z, after w)  ->  wz forced

    Returns human-readable violation notes; empty means all hold.
    """
    n = g.n
    pos = {v: i for i, v in enumerate(seq)}

    def forced(a, b):
        return (a, b) if a < b else (b, a)

    cover = [-1] * n
    for u, v in g.edges():
        lo, hi = sorted((pos[u], pos[v]))
        if hi > cover[lo]:
            cover[lo] = hi
    best = -1
    for k in range(n):
        best = max(best, cover[k])
        cover[k] = best
    minnp = [min((pos[w] for w in bits(g.adj[v])), default=n) for v in range(n)]
    maxnp = [max((pos[w] for w in bits(g.adj[v])), default=-1) for v in range(n)]

    out = []
    for w, z in non_edges(g):
        pw, pz = pos[w], pos[z]
        have = forced(w, z) in comp
        if not have:
            if minnp[z] < pw < maxnp[z]:
                out.append(f"straddled pair {(w, z)} not forced")
            if minnp[w] < pz < maxnp[w]:
                out.append(f"straddled pair {(z, w)} not forced")
            if minnp[z] < pw and minnp[w] < pz:
                out.append(f"left-anchored pair {(w, z)} not forced")
            if maxnp[z] > pw and maxnp[w] > pz:
                out.append(f"right-anchored pair {(w, z)} not forced")
            if pw > 0 and cover[pw - 1] > pz and pz > 0 and cover[pz - 1] > pw:
                out.append(f"double-spanned pair {(w, z)} not forced")
            for u, t in ((w, z), (z, w)):
                if pos[t] < pos[u] and maxnp[t] > pos[u]:
                    out.append(f"pair {(u, t)} unflagged with far right neighbor")
                if pos[u] < pos[t] and minnp[t] < pos[u]:
                    out.append(f"pair {(u, t)} unflagged with far left neighbor")
    if p is not None:
        ys = list(bits(p.y))
        ymin = min(pos[y] for y in ys)
        ymax = max(pos[y] for y in ys)
        for x in bits(p.x_all):
            if ymin < pos[x] < ymax:
                for y in ys:
                    if not g.adjacent(x, y) and forced(x, y) not in comp:
                        out.append(f"blocked x {x} not forced against y {y}")
        shared = list(bits(p.shared))
        if len(shared) >= 2:
            smin = min(pos[x] for x in shared)
            smax = max(pos[x] for x in shared)
            for y in ys:
                if smin < pos[y] < smax:
                    for x in shared:
                        if not g.adjacent(x, y) and forced(x, y) not in comp:
                            out.append(f"pinched y {y} not forced against x {x}")
    return out


def linf_embedding_report(g, coords):
    """Exact adjacency-versus-distance audit of a planar point assignment.

    Returns (mismatches, boundary) where ``mismatches`` lists vertex pairs
    whose L-infinity distance disagrees with adjacency under exact rational
    comparison and ``boundary`` counts adjacent pairs at distance exactly 1.
    """
    mismatches = []
    boundary = 0
    for u in range(g.n):
        xu, yu = coords[u]
        for v in range(u + 1, g.n):
            xv, yv = coords[v]
            d = max(abs(xu - xv), abs(yu - yv))
            adj = g.adjacent(u, v)
            if adj and d == 1:
                boundary += 1
            if adj != (d <= 1):
                mismatches.append((u, v))
    return mismatches, boundary


def verify_embedding_by_pairs(g: Graph, coords: tuple[tuple[Fraction, Fraction], ...]) -> EmbeddingCheck:
    """Adjacency iff max-metric distance at most 1, exact comparisons; a
    non-adjacent pair at distance exactly 1 fails.

    The original pair loop, kept as the reference for the ``ok`` flag and
    the first violation ``embedding.verify_embedding`` must reproduce.
    """
    if len(coords) != g.n:
        raise InputError("coordinate count differs from vertex count")
    for u in range(g.n):
        xu, yu = coords[u]
        for v in range(u + 1, g.n):
            xv, yv = coords[v]
            near = abs(xu - xv) <= 1 and abs(yu - yv) <= 1
            if near != g.adjacent(u, v):
                return EmbeddingCheck(ok=False, violation=(u, v))
    return EmbeddingCheck(ok=True)


def shortest_odd_cycle_by_all_roots(cg: ChordGraph) -> tuple[int, ...]:
    """Shortest odd cycle, found by BFS layering from every non-isolated node.

    The original dict-and-path-list search, kept as the reference for the
    witness ``necessary._shortest_odd_cycle`` must reproduce exactly.
    """
    best: tuple[int, ...] | None = None
    live = list(bits(cg.non_isolated_mask))
    for root in live:
        dist = {root: 0}
        parent = {root: None}
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in bits(cg.adj[u]):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
        for u in dist:
            for v in bits(cg.adj[u]):
                if v in dist and u < v and dist[u] == dist[v]:
                    pu, pv = [], []
                    a, b = u, v
                    while a is not None:
                        pu.append(a)
                        a = parent[a]
                    while b is not None:
                        pv.append(b)
                        b = parent[b]
                    common = set(pu) & set(pv)
                    ai = next(i for i, x in enumerate(pu) if x in common)
                    bi = next(i for i, x in enumerate(pv) if x in common)
                    if pu[ai] != pv[bi]:
                        continue
                    cycle = pu[: ai + 1] + pv[:bi][::-1]
                    if len(cycle) % 2 == 1 and (best is None or len(cycle) < len(best)):
                        best = tuple(cycle)
    assert best is not None
    return best


def _region_sets_by_scan(cg: ChordGraph, p: BabPartition):
    """R(X_a), R(X_b): y's appearing in a non-isolated node whose x-end lies
    in X_a (resp. X_b); shared x-ends contribute to both."""
    ra: set[int] = set()
    rb: set[int] = set()
    live = cg.non_isolated_mask
    for i in bits(live):
        x, y = cg.nodes[i]
        if (p.x_a >> x) & 1:
            ra.add(y)
        if (p.x_b >> x) & 1:
            rb.add(y)
    return frozenset(ra), frozenset(rb)


def rigid_free_by_pair_scan(g: Graph, p: BabPartition, cg: ChordGraph):
    """(a_violations, b_violations) by scanning one RigidPair per chord edge.

    The original ``check_rigid_free``, kept as the reference for the
    violations ``necessary.check_rigid_free`` must reproduce exactly; only
    the report it builds is cut down to the two violation tuples.
    """
    r_xa, r_xb = _region_sets_by_scan(cg, p)
    ra_mask = sum(1 << y for y in r_xa)
    rb_mask = sum(1 << y for y in r_xb)
    pairs = [cg.witness(i, j) for i, j in cg.edges()]

    def permitted(other_mask: int) -> list[RigidPair]:
        allowed = p.shared | other_mask
        keep = []
        for rp in pairs:
            xm = (1 << rp.x1) | (1 << rp.x2)
            if not (xm & ~allowed) and (xm & p.shared):
                keep.append(rp)
        return keep

    def trapped(side, candidates, region_mask):
        out = []
        for v in bits(side):
            ny = ny_mask(g, p, v)
            if (ny & region_mask).bit_count() <= 1:
                continue
            for rp in candidates:
                if (ny >> rp.y1) & 1 and (ny >> rp.y2) & 1:
                    out.append((v, rp))
                    break
        return tuple(out)

    cand_a = permitted(p.b_only)
    cand_b = permitted(p.a_only)
    a_wide = trapped(p.x_a, cand_a, rb_mask)
    b_wide = trapped(p.x_b, cand_b, ra_mask)
    a_viol = tuple(t for t in a_wide if (p.a_only >> t[0]) & 1)
    b_viol = tuple(t for t in b_wide if (p.b_only >> t[0]) & 1)
    return a_viol, b_viol


def edge_pairs(rp: RigidPair) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two x-y edges (x1, y1) and (x2, y2) of a rigid pair."""
    return ((rp.x1, rp.y1), (rp.x2, rp.y2))


def members(mask: int) -> frozenset[int]:
    """The set bits of a mask, as a set of ids."""
    return frozenset(bits(mask))


def nodes_of(cg: ChordGraph, mask: int) -> frozenset[tuple[int, int]]:
    """The chord-graph nodes of a node-index mask."""
    return frozenset(cg.nodes[i] for i in bits(mask))


def relation_pairs(rel) -> list[tuple[int, int]]:
    """The pairs (u, v) of a derived relation's successor masks, sorted."""
    return [(u, v) for u, s in enumerate(rel) for v in bits(s)]


def relation_of(n: int, pairs) -> tuple[int, ...]:
    """The successor masks of the relation on n vertices holding exactly
    ``pairs``."""
    succ = [0] * n
    for u, v in pairs:
        succ[u] |= 1 << v
    return tuple(succ)


def out_set(rel: tuple[int, ...], v: int) -> frozenset[int]:
    """Everything a derived relation puts after ``v``."""
    return members(rel[v])


def constraint_arcs(cons) -> set[tuple[int, int]]:
    """The 'u before v' arcs held by a constraint set, which keeps
    successor masks as a relation does."""
    return set(relation_pairs(cons.succ))


# The relation and constraint formats before successor masks: colorings and
# relations as frozensets of tuples, constraints as a set of arcs. The three
# functions below are the original implementations, copied verbatim apart
# from the class names, as the reference for the mask-based versions.

RED = "red"
BLUE = "blue"


@dataclass(frozen=True)
class NodeColoring:
    """A proper 2-coloring of the non-isolated chord-graph nodes."""

    red: frozenset[tuple[int, int]]
    blue: frozenset[tuple[int, int]]

    def color_of(self, node: tuple[int, int]) -> str | None:
        if node in self.red:
            return RED
        if node in self.blue:
            return BLUE
        return None


def node_coloring(cg: ChordGraph, f) -> NodeColoring:
    """A mask coloring as sets of nodes."""
    return NodeColoring(red=nodes_of(cg, f.red), blue=nodes_of(cg, f.blue))


@dataclass(frozen=True)
class PairRelation:
    """A strict binary relation over a vertex domain (reflexivity implied)."""

    domain: frozenset[int]
    pairs: frozenset[tuple[int, int]]

    def related(self, u: int, v: int) -> bool:
        return (u, v) in self.pairs


def derive_relations_by_pairs(cg: ChordGraph, f: NodeColoring, p: BabPartition) -> tuple[PairRelation, PairRelation]:
    """Orient X and Y pairs from every chord-graph edge under coloring f.

    An edge joins the chords (x, y') and (x', y) of the rigid pair
    {xy, x'y'}; red on the (x, y') side puts x before x' and y before y'.
    """
    x_pairs: set[tuple[int, int]] = set()
    y_pairs: set[tuple[int, int]] = set()
    for i, j in cg.edges():
        u = cg.nodes[i]
        v = cg.nodes[j]
        cu = f.color_of(u)
        cv = f.color_of(v)
        if cu == cv or cu is None or cv is None:
            continue
        if cu == BLUE:
            u, v = v, u
        # u is the red chord (x, y'), v the blue chord (x', y)
        x, yp = u
        xp, y = v
        x_pairs.add((x, xp))
        y_pairs.add((y, yp))
    return (
        PairRelation(domain=members(p.x_all), pairs=frozenset(x_pairs)),
        PairRelation(domain=members(p.y), pairs=frozenset(y_pairs)),
    )


def validate_partial_order_by_pairs(rel: PairRelation) -> PartialOrderCheck:
    """Antisymmetry, then transitivity through out-set containment."""
    for u, v in sorted(rel.pairs):
        if u != v and (v, u) in rel.pairs:
            return PartialOrderCheck(ok=False, antisymmetry_violation=(u, v))
    outs: dict[int, set[int]] = {}
    for u, v in rel.pairs:
        outs.setdefault(u, set()).add(v)
    for v in sorted(outs):
        for u in sorted(outs[v]):
            extra = outs.get(u, set()) - outs[v]
            if extra:
                return PartialOrderCheck(
                    ok=False, transitivity_violation=(v, u, min(extra))
                )
    return PartialOrderCheck(ok=True)


class ArcConstraintSet:
    """Accumulates 'u before v' arcs with tie handling for equal neighborhoods."""

    def __init__(self, n: int):
        self.n = n
        self.arcs: set[tuple[int, int]] = set()

    def add(self, u: int, v: int):
        if u != v:
            self.arcs.add((u, v))

    def add_inclusion(self, u: int, v: int, mu: int, mv: int):
        """Order by inclusion of neighborhood masks: strictly smaller first,
        equal masks broken by ascending id."""
        if mu == mv:
            self.add(min(u, v), max(u, v))
        elif mu & ~mv == 0:
            self.add(u, v)
        elif mv & ~mu == 0:
            self.add(v, u)

    def toposort(self) -> tuple[int, ...]:
        indeg = [0] * self.n
        succ: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in sorted(self.arcs):
            succ[u].append(v)
            indeg[v] += 1
        heap = [v for v in range(self.n) if indeg[v] == 0]
        heapq.heapify(heap)
        seq = []
        while heap:
            v = heapq.heappop(heap)
            seq.append(v)
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, w)
        if len(seq) < self.n:
            raise OrderConstructionError(self._find_cycle(succ, indeg))
        return tuple(seq)

    def _find_cycle(self, succ, indeg):
        remaining = {v for v in range(self.n) if indeg[v] > 0}
        start = min(remaining)
        path = [start]
        seen = {start}
        v = start
        while True:
            v = min(w for w in succ[v] if w in remaining)
            if v in seen:
                return tuple(path[path.index(v):])
            path.append(v)
            seen.add(v)


# The exhaustive order search before forced-pair masks: one ``completion``
# per permutation. Copied verbatim apart from the name, orders as plain
# tuples, and ``completion``'s pair mask compared directly where each pair
# was re-indexed to one bit per non-edge. Both numberings map pairs to bits
# one to one, so equality and disjointness, and with them every answer, are
# the same. The reference for ``brute_force_orders``.


def brute_force_orders_by_completion(g: Graph, bound: int = 6) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Exhaustive search for two orders with disjoint forced sets.

    Reversing an order leaves its forced set unchanged, so only orders that
    are lexicographically no larger than their reversal are scanned; the
    returned pair is still the lexicographically first among all candidates.
    Scope-guarded since the search is factorial.
    """
    if g.n > bound:
        raise ScopeError(f"brute force limited to {bound} vertices, got {g.n}")
    if g.n == 0:
        return ((), ())
    reps: list[tuple[tuple[int, ...], int]] = []
    for perm in itertools.permutations(range(g.n)):
        if perm > perm[::-1]:
            continue
        reps.append((perm, completion(g, perm)))

    all_masks = {mask for _, mask in reps}
    for perm, mask in reps:
        if any(mask & other == 0 for other in all_masks):
            for perm2, mask2 in reps:
                if mask & mask2 == 0:
                    return (perm, perm2)
    return None


# The constrained coloring before class masks: BFS depth parity as a color
# list with one entry per chord node, turned back into masks at the end.
# Copied verbatim apart from the names, as the reference for
# ``necessary.color_constrained``.


def _bfs_coloring_by_list(cg: ChordGraph) -> tuple[list[int | None], bool]:
    """Color the non-isolated nodes by BFS depth parity from the least one;
    returns the colors and whether some edge joins two nodes of one color,
    that is, some node's neighbor mask meets its own BFS layer.

    A non-isolated node the BFS leaves unreached raises ScopeError, so the
    scope check takes precedence over any refutation.
    """
    live = cg.non_isolated_mask
    if not live:
        return [None] * len(cg.nodes), False
    order, depth, _ = cg.bfs(next(bits(live)))
    if len(order) < live.bit_count():
        raise ScopeError("chord graph has several non-isolated components")
    layers = _layer_masks(order, depth)
    conflict = any(cg.adj[v] & layers[depth[v]] for v in order)
    return [d % 2 if d >= 0 else None for d in depth], conflict


def color_constrained_by_list(cg: ChordGraph, ab: AbVertexSets) -> TwoColoring | ColoringRefutation:
    """2-color the chord graph with script-A red and script-B blue.

    Requires the non-isolated part to be connected (audit upstream); a
    disconnected chord graph raises ScopeError. The coloring is canonical:
    BFS from the lexicographically least node, then a global swap so the
    constraint holds (root red when no constraint applies).
    """
    color, conflict = _bfs_coloring_by_list(cg)
    if conflict:
        cyc = _shortest_odd_cycle(cg)
        return ColoringRefutation(
            kind="odd-cycle",
            cycle=tuple(cg.nodes[i] for i in cyc),
            detail=f"odd cycle of length {len(cyc)}",
        )

    sa = list(bits(ab.script_a_mask))
    sb = list(bits(ab.script_b_mask))
    for group, name in ((sa, "forced-red"), (sb, "forced-blue")):
        hues = {color[i] for i in group}
        if len(hues) > 1:
            lo = min(i for i in group if color[i] == 0)
            hi = min(i for i in group if color[i] == 1)
            return ColoringRefutation(
                kind="forced-conflict",
                conflict=(cg.nodes[lo], cg.nodes[hi]),
                detail=f"{name} nodes fall in both color classes",
            )
    if sa and sb and color[sa[0]] == color[sb[0]]:
        return ColoringRefutation(
            kind="forced-conflict",
            conflict=(cg.nodes[sa[0]], cg.nodes[sb[0]]),
            detail="a forced-red and a forced-blue node share a color class",
        )

    red_value = 0
    if sa:
        red_value = color[sa[0]]
    elif sb:
        red_value = 1 - color[sb[0]]
    red = mask_of(i for i, c in enumerate(color) if c == red_value)
    return TwoColoring(red=red, blue=cg.non_isolated_mask & ~red)


class NestingRelation(Enum):
    """Outcome of comparing two scoped neighborhoods under inclusion."""

    EQUAL = "equal"
    LEFT_SUBSET = "left-subset"
    RIGHT_SUBSET = "right-subset"
    CROSSING = "crossing"


def nesting(g: Graph, u: int, v: int, scope) -> NestingRelation:
    """Compare N(u) and N(v) restricted to ``scope`` under set inclusion.

    Exactly one outcome is reported; EQUAL when the restrictions coincide,
    LEFT_SUBSET when N(u) is a proper subset of N(v), and symmetrically.
    """
    nu = {w for w in scope if g.adjacent(u, w)}
    nv = {w for w in scope if g.adjacent(v, w)}
    if nu == nv:
        return NestingRelation.EQUAL
    if nu < nv:
        return NestingRelation.LEFT_SUBSET
    if nv < nu:
        return NestingRelation.RIGHT_SUBSET
    return NestingRelation.CROSSING


@dataclass(frozen=True)
class NonEdgeClasses:
    """X-Y non-edges split into isolated (class 1) and non-isolated (class 2)
    chord-graph nodes, plus the private-to-private pairs (class 3)."""

    isolated: frozenset[tuple[int, int]]
    linked: frozenset[tuple[int, int]]
    cross: frozenset[tuple[int, int]]


def classify_nonedges(g: Graph, p: BabPartition, cg: ChordGraph) -> NonEdgeClasses:
    isolated = frozenset(node for node, a in zip(cg.nodes, cg.adj) if not a)
    linked = frozenset(node for node, a in zip(cg.nodes, cg.adj) if a)
    cross = frozenset((a, b) for a in bits(p.a_only) for b in bits(p.b_only))
    return NonEdgeClasses(isolated=isolated, linked=linked, cross=cross)


@dataclass(frozen=True)
class ChordSplit:
    rigid: RigidPair
    in_first: tuple[int, int] | None
    in_second: tuple[int, int] | None

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


def chord_distribution(g: Graph, p: BabPartition, pair) -> ChordDistribution:
    """For each rigid pair, which forced set of the order pair holds which of
    its two chords; rigid pairs from the four-tuple scan, in sorted order.

    With disjoint forced sets each rigid pair must contribute exactly one
    chord to each side; a split with a missing or doubled side is flagged.
    """
    if not pair.valid:
        raise InputError("order pair invalid: forced sets intersect")
    first_set, second_set = pairs_of(pair.c1, g.n), pairs_of(pair.c2, g.n)
    splits = []
    for (x1, y1), (x2, y2) in sorted(rigid_pairs_by_definition(g, p)):
        rp = RigidPair(x1, y1, x2, y2)
        chords = [tuple(sorted(ch)) for ch in rp.chords]
        first = [ch for ch in chords if ch in first_set]
        second = [ch for ch in chords if ch in second_set]
        splits.append(
            ChordSplit(
                rigid=rp,
                in_first=first[0] if len(first) == 1 else None,
                in_second=second[0] if len(second) == 1 else None,
            )
        )
    return ChordDistribution(splits=tuple(splits))


# The instance parser before bulk edge runs: every line through the
# tokenizer. Copied verbatim apart from the names, as the reference for
# ``instances.parse_instance``.


def _content_lines_by_lines(text: str):
    """Pairs (line number, stripped line), skipping blanks and # comments."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield i, line


def _int_fields_by_lines(i: int, rest: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in rest.split()]
    except ValueError:
        raise ParseError(f"line {i}: {what} wants integers, got {rest!r}") from None


def parse_instance_by_lines(text: str) -> tuple[Graph, BabPartition]:
    lines = list(_content_lines_by_lines(text))
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
            vals = _int_fields_by_lines(i, rest, "n")
            if len(vals) != 1 or vals[0] < 0:
                raise ParseError(f"line {i}: n wants one nonnegative integer")
            n = vals[0]
        elif key in sets:
            if sets[key] is not None:
                raise ParseError(f"line {i}: duplicate {key} line")
            sets[key] = _int_fields_by_lines(i, rest, key)
        elif key == "edge":
            vals = _int_fields_by_lines(i, rest, "edge")
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


# The completion-pair and coordinate readers before bulk completion lines
# and int coordinate parsing: every pair token through the loop, every
# coordinate through Fraction's own string parser. Copied verbatim apart
# from the names, as the references for ``instances._parse_pairs`` and
# ``instances._coordinate``.

_COORDINATE_BY_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_pairs_by_tokens(i: int, rest: str) -> frozenset[tuple[int, int]]:
    pairs = []
    for tok in rest.split():
        left, _, right = tok.partition(",")
        try:
            pairs.append((int(left), int(right)))
        except ValueError:
            raise ParseError(f"line {i}: bad pair {_echo(tok)}") from None
    return frozenset(pairs)


def coordinate_by_fraction_string(tok: str) -> Fraction:
    if not _COORDINATE_BY_STRING.fullmatch(tok):
        raise ValueError(f"bad coordinate {tok!r}")
    return Fraction(tok)


# The axis realization before it read the completion of the order itself:
# it took G plus the order's forced set as a graph, re-tested that the order
# is interval-closed on it, and read each vertex's first neighbor off prefix
# masks. Copied verbatim apart from the name and the order as a plain
# tuple, as the reference for ``embedding.realize_unit_interval``.


def realize_unit_interval_of_augmented_graph(g_aug: Graph, o: tuple[int, ...]) -> tuple[Fraction, ...]:
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
    if not is_unit_interval_order(g_aug, o):
        raise StructuralError(
            "order does not admit a unit interval realization of the augmented graph"
        )
    # constraint x_b - x_a <= (wa + wb*gap) stored as (a, b, wa, wb)
    arcs: list[tuple[int, int, int, int]] = []
    prefix = prefix_masks(o)
    for k in range(1, n):
        arcs.append((k, k - 1, 0, 0))
        # the order passed the test above, so the neighbors before k are
        # exactly the positions first_near..k-1
        first_near = k - (g_aug.adj[o[k]] & prefix[k]).bit_count()
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
        coords[o[k]] = (a - base_a) + (b - base_b) * gap
    return tuple(coords)


# The two order builders before each order was laid out as its blocks in
# sequence: one toposort over the whole vertex set, with the block layout
# (the a-chain, the shared-block fences, X_a before Y in the first order, X
# before Y in the second) added as constraints. Copied verbatim apart from
# the names and relations and orders as plain tuples, as the reference for
# ``orders.build_order1`` and ``orders.build_order2``.


class WholeSetConstraintSet:
    """'u before v' constraints as one successor mask per vertex, with tie
    handling for equal neighborhoods."""

    def __init__(self, n: int):
        self.succ = [0] * n

    def add(self, u: int, v: int):
        if u != v:
            self.succ[u] |= 1 << v

    def add_all(self, us: int, vs: int):
        """Every vertex of mask ``us`` before every other vertex of ``vs``."""
        for u in bits(us):
            self.succ[u] |= vs & ~(1 << u)

    def add_oriented(self, rel: tuple[int, ...], u: int, v: int, reverse_rel: bool) -> bool:
        """Order a related pair as the successor masks ``rel`` do, or
        reversed; False when neither is related to the other."""
        uv, vu = bool(rel[u] >> v & 1), bool(rel[v] >> u & 1)
        if not (uv or vu):
            return False
        if uv != reverse_rel:
            self.add(u, v)
        else:
            self.add(v, u)
        return True

    def add_inclusion(self, u: int, v: int, mu: int, mv: int):
        """Order by inclusion of neighborhood masks: strictly smaller first,
        equal masks broken by ascending id."""
        if mu == mv:
            self.add(min(u, v), max(u, v))
        elif mu & ~mv == 0:
            self.add(u, v)
        elif mv & ~mu == 0:
            self.add(v, u)

    def toposort(self) -> tuple[int, ...]:
        """The topological order that always places the least ready vertex."""
        indeg = [0] * len(self.succ)
        for s in self.succ:
            for w in bits(s):
                indeg[w] += 1
        heap = [v for v, d in enumerate(indeg) if d == 0]
        heapq.heapify(heap)
        seq = []
        while heap:
            v = heapq.heappop(heap)
            seq.append(v)
            for w in bits(self.succ[v]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, w)
        if len(seq) < len(self.succ):
            raise OrderConstructionError(self._find_cycle(mask_of(v for v, d in enumerate(indeg) if d)))
        return tuple(seq)

    def _find_cycle(self, left: int) -> tuple[int, ...]:
        """A cycle among the unplaced vertices ``left``. Vertices with no
        successor left are dropped until none remain, so every vertex left
        leads to a cycle; the walk then follows least successors from the
        least vertex until one repeats."""
        while dead := mask_of(v for v in bits(left) if not self.succ[v] & left):
            left &= ~dead
        path = [lowest(left)]
        while True:
            v = lowest(self.succ[path[-1]] & left)
            if v in path:
                return tuple(path[path.index(v):])
            path.append(v)


def _x_rule_pairs_whole_set(g, p, rel_x, members: int, reverse_rel: bool, cons: WholeSetConstraintSet):
    """Shared skeleton of rules 1.1 and 2.1 over the X vertices ``members``:
    the oriented relation (reversed in the second order), else Y-neighborhood
    inclusion."""
    xs = [(x, ny_mask(g, p, x)) for x in bits(members)]
    for i, (x, mx) in enumerate(xs):
        for xp, mxp in xs[i + 1:]:
            if not cons.add_oriented(rel_x, x, xp, reverse_rel):
                cons.add_inclusion(x, xp, mx, mxp)


def _y_rule_pairs_whole_set(g, p, rel_y, reverse_rel: bool, swap_sides: bool, cons: WholeSetConstraintSet):
    """Shared skeleton of rules 1.3/1.4 and 2.3/2.4.

    Nesting (same direction in both orders) and the oriented relation pairs;
    the difference-pattern rule applies only to pairs neither related nor
    nested, where its two clauses cannot clash with the nesting clause.
    """
    left_target = p.b_only if swap_sides else p.a_only
    right_target = p.a_only if swap_sides else p.b_only
    ys = [(y, nx_mask(g, p, y)) for y in bits(p.y)]
    for i, (y, my) in enumerate(ys):
        for yp, myp in ys[i + 1:]:
            if cons.add_oriented(rel_y, y, yp, reverse_rel):
                continue
            if my & ~myp == 0 or myp & ~my == 0:
                # bigger X-neighborhood first in both orders
                cons.add_inclusion(y, yp, ~my, ~myp)
            elif my & ~myp & ~left_target == 0 and myp & ~my & ~right_target == 0:
                cons.add(y, yp)
            elif myp & ~my & ~left_target == 0 and my & ~myp & ~right_target == 0:
                cons.add(yp, y)


def build_order1_by_whole_set(g: Graph, p: BabPartition, rel_x: tuple[int, ...], rel_y: tuple[int, ...]) -> tuple[int, ...]:
    """First total order: private a's, then the shared block, then private
    b's interleaved into Y around the Y-neighborhood of the last a.

    Pairwise rules: shared x's by oriented relation or Y-neighborhood
    inclusion; Y by oriented relation, X-neighborhood inclusion (bigger
    first), or the private-difference pattern; all of X_a before Y; the
    Y-neighbors of the nesting-maximal private a before the first b, the
    rest of Y after the last b. Unconstrained pairs fall to the ascending-id
    topological tie-break.
    """
    cons = WholeSetConstraintSet(g.n)
    _x_rule_pairs_whole_set(g, p, rel_x, p.shared, reverse_rel=False, cons=cons)
    for seq in (p.a_seq, p.b_seq):
        for prev, cur in zip(seq, seq[1:]):
            cons.add(prev, cur)
    if p.a_seq:
        cons.add_all(1 << p.a_seq[-1], p.shared)
    if p.b_seq:
        cons.add_all(p.shared, 1 << p.b_seq[0])

    _y_rule_pairs_whole_set(g, p, rel_y, reverse_rel=False, swap_sides=False, cons=cons)

    if p.a_seq and p.b_seq:
        nya = ny_mask(g, p, p.a_seq[-1])
        cons.add_all(nya, 1 << p.b_seq[0])
        cons.add_all(1 << p.b_seq[-1], p.y & ~nya)
    cons.add_all(p.x_a, p.y)
    return cons.toposort()


def build_order2_by_whole_set(g: Graph, p: BabPartition, rel_x: tuple[int, ...], rel_y: tuple[int, ...]) -> tuple[int, ...]:
    """Second total order: all of X (oriented relation reversed, inclusion
    kept; mutually non-nested private pairs put the b before the a), then Y
    with the oriented relation reversed and the difference pattern mirrored."""
    cons = WholeSetConstraintSet(g.n)
    _x_rule_pairs_whole_set(g, p, rel_x, p.x_all, reverse_rel=True, cons=cons)
    for a in bits(p.a_only):
        nya = ny_mask(g, p, a)
        for b in bits(p.b_only):
            nyb = ny_mask(g, p, b)
            if nya & ~nyb and nyb & ~nya:
                cons.add(b, a)

    _y_rule_pairs_whole_set(g, p, rel_y, reverse_rel=True, swap_sides=True, cons=cons)

    cons.add_all(p.x_all, p.y)
    return cons.toposort()


# The certificate check before forced sets were compared as pair masks: the
# stored sets against ``completion``'s as frozensets of pairs. Copied
# verbatim apart from the name, every forced set (``completion``'s and the
# stored pair masks) read back as pairs by ``pairs_of``, and orders and
# coordinates as plain tuples, as the reference for
# ``pipeline.verify_certificate``.


def verify_certificate_by_sets(g: Graph, cert: Certificate) -> CertificateCheck:
    """Re-check a certificate from its own fields.

    For YES: both orders are permutations of V, there is one coordinate
    pair per vertex, the stored forced sets match the ones the orders
    induce, they are disjoint, and the coordinates pass the exact adjacency
    test. A malformed field is reported as a problem. NO and UNDECIDED
    certificates only need a consistent shape.
    """
    problems = []
    if cert.verdict not in (YES, NO, UNDECIDED):
        problems.append(f"unknown verdict {cert.verdict!r}")
    if cert.verdict != YES:
        if cert.verdict == NO and not cert.reason:
            problems.append("refutation without a reason")
        return CertificateCheck(ok=not problems, problems=tuple(problems))

    want = frozenset(range(g.n))
    for name, o in (("order1", cert.order1), ("order2", cert.order2)):
        if o is None:
            problems.append(f"{name} missing")
        elif frozenset(o) != want or len(o) != g.n:
            problems.append(f"{name} is not a permutation of the vertices")
    if cert.completion1 is None or cert.completion2 is None:
        problems.append("forced sets missing")
    if cert.embedding is None:
        problems.append("embedding missing")
    elif len(cert.embedding) != g.n:
        problems.append(f"embedding has {len(cert.embedding)} coordinates for {g.n} vertices")
    if problems:
        return CertificateCheck(ok=False, problems=tuple(problems))

    c1, c2 = pairs_of(cert.completion1, g.n), pairs_of(cert.completion2, g.n)
    if pairs_of(completion(g, cert.order1), g.n) != c1:
        problems.append("stored first forced set differs from the order's")
    if pairs_of(completion(g, cert.order2), g.n) != c2:
        problems.append("stored second forced set differs from the order's")
    if c1 & c2:
        problems.append("forced sets intersect")
    check = verify_embedding(g, cert.embedding)
    if not check.ok:
        problems.append(f"embedding fails on pair {check.violation}")
    return CertificateCheck(ok=not problems, problems=tuple(problems))
