"""Slow reference implementations the tests cross-check the package against.

Everything here recomputes results from raw definitions: direct scans,
exhaustive permutation search and a discretized geometric search. Nothing
imports the package's algorithmic paths beyond the plain data containers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

from squaregeo.chords import ChordGraph
from squaregeo.embedding import Embedding, EmbeddingCheck
from squaregeo.errors import InputError
from squaregeo.graph import BabPartition, Graph, bits


def scan_completion(g: Graph, seq) -> frozenset[tuple[int, int]]:
    """Forced non-edges by scanning every edge for a covering witness."""
    pos = {v: i for i, v in enumerate(seq)}
    forced = set()
    for w, z in g.non_edges():
        pw, pz = sorted((pos[w], pos[z]))
        for u, v in g.edges():
            lo, hi = sorted((pos[u], pos[v]))
            if lo <= pw and pz <= hi:
                forced.add((w, z))
                break
    return frozenset(forced)


def rigid_pairs_by_definition(g: Graph, p: BabPartition):
    """Induced 4-cycles x1-y1-y2-x2 with both diagonals missing, scanned
    over every vertex 4-tuple. Returned as ((x1, y1), (x2, y2)) with x1 < x2."""
    found = set()
    xs = sorted(p.x_all)
    ys = sorted(p.y)
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
        for x in sorted(p.x_all)
        for y in sorted(p.y)
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
    index = {pair: i for i, pair in enumerate(g.non_edges())}
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
    minnp = [min((pos[w] for w in g.neighbors(v)), default=n) for v in range(n)]
    maxnp = [max((pos[w] for w in g.neighbors(v)), default=-1) for v in range(n)]

    out = []
    for w, z in g.non_edges():
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
        ys = sorted(p.y)
        ymin = min(pos[y] for y in ys)
        ymax = max(pos[y] for y in ys)
        for x in sorted(p.x_all):
            if ymin < pos[x] < ymax:
                for y in ys:
                    if not g.adjacent(x, y) and forced(x, y) not in comp:
                        out.append(f"blocked x {x} not forced against y {y}")
        shared = sorted(p.shared)
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


def verify_embedding_by_pairs(g: Graph, e: Embedding) -> EmbeddingCheck:
    """Adjacency iff max-metric distance at most 1, exact comparisons; a
    non-adjacent pair at distance exactly 1 fails.

    The original pair loop, kept as the reference for the ``ok`` flag and
    the first violation ``embedding.verify_embedding`` must reproduce.
    """
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
