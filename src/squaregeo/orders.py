"""Derived vertex relations and the construction of the two linear orders.

From an admissible chord-graph coloring, each rigid pair orients one
X-relation pair and one Y-relation pair. When both relations are partial
orders and both private sides are totally nested, two total orders are laid
out as blocks in sequence: the a's, the shared block, then the b's within Y;
and X, then Y. Pairwise placement rules order each block: the relations'
own pairs, and one classification of each pair they leave unordered, made
once for both orders. The nesting is tested once, in ``check_sufficient``
after orienting, and its sequences are the first order's a's and b's. The
orders' interval completions are disjoint for every instance in scope,
which the caller re-verifies. The coloring and the rigid-free report come
from the passing necessary verdict and are not recomputed here.

A block sorts by the topological order that places the least ready vertex
first. The rules are dense, and where they totally order a block, as they
mostly do, the order is read off each member's successor count in O(k)
mask operations; behind the last a's fences, the b's then merge into Y's
order in one pass. Kahn's heap sort remains for rules that are partial or
cycle.

The coloring arrives as its red node-index mask; blue is the rest of the
non-isolated nodes. A relation, like each set of placement rules, is a
sequence of successor masks, one per vertex: bit v of ``succ[u]`` says u
comes before v. An order is its vertex sequence, a tuple.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .chords import ChordGraph
from .errors import OrderConstructionError, ScopeError
from .graph import BabPartition, Graph, bits, lowest, mask_of
from .necessary import NecessaryStatus, NecessaryVerdict


def derive_relations(
    g: Graph, p: BabPartition, cg: ChordGraph, red: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orient X and Y pairs from every chord-graph edge under the coloring
    whose red node mask is ``red``.

    An edge joins the chords (x, y') and (x', y) of the rigid pair
    {xy, x'y'}; red on the (x, y') side puts x before x' and y before y'.
    Each edge is read once, from its red end: the coloring is proper and
    isolated nodes have no edges, so every edge has exactly one red end.

    The edges are read through the graph's vertex masks, not through
    ``cg.adj``. By the neighbor rule of ``build_chord_graph``, the
    neighbors of a node (x, y') are the nodes (x', y) with x' in
    N(x) & N(y') & X, y in N_Y(x) and y not in N(x'). Let C_x be the x' in
    N(x) & X whose Y-neighborhood does not hold all of N_Y(x): those with
    at least one such y. It takes one AND per y in N_Y(x), as
    C_x = N(x) & X & ~(X & the intersection of N(y) over y in N_Y(x)),
    since the x' of X adjacent to every such y are those whose
    Y-neighborhood holds N_Y(x); when N_Y(x) is empty that intersection is
    all of X and C_x is empty. The x-ends of the neighbors are then exactly
    A = C_x & N(y'), and their y-ends are the union over A of N_Y(x) minus
    N(x'), that is, N_Y(x) minus the intersection of N_Y(x') over A. So a
    red node costs one vertex-mask operation per member of A, not one
    node-mask step per neighbor. The red nodes of x are cut out of ``red``
    once, as the block of x in the x-end table ``cg.x_start``.
    """
    x_succ = [0] * g.n
    y_pred = [0] * g.n  # y_pred[y'] holds the y put before y'
    for x in bits(p.x_all):
        start = cg.x_start[x]
        block = red >> start & (1 << cg.x_start[x + 1] - start) - 1
        if block:
            ny = g.adj[x] & p.y
            sup = p.x_all
            for y in bits(ny):
                sup &= g.adj[y]
            cx = g.adj[x] & p.x_all & ~sup
            for k in bits(block):
                yp = cg.nodes[start + k][1]
                ends = cx & g.adj[yp]
                x_succ[x] |= ends
                common = ny
                for xp in bits(ends):
                    common &= g.adj[xp]
                y_pred[yp] |= ny & ~common
    return tuple(x_succ), _transpose(y_pred)


@dataclass(frozen=True)
class PartialOrderCheck:
    ok: bool
    antisymmetry_violation: tuple[int, int] | None = None
    transitivity_violation: tuple[int, int, int] | None = None


def validate_partial_order(succ: tuple[int, ...]) -> PartialOrderCheck:
    """Antisymmetry, then transitivity through successor-mask containment;
    each reports its least violation."""
    for u, s in enumerate(succ):
        for v in bits(s & ~(1 << u)):
            if (succ[v] >> u) & 1:
                return PartialOrderCheck(ok=False, antisymmetry_violation=(u, v))
    for v, s in enumerate(succ):
        for u in bits(s):
            extra = succ[u] & ~s
            if extra:
                return PartialOrderCheck(ok=False, transitivity_violation=(v, u, lowest(extra)))
    return PartialOrderCheck(ok=True)


def _transpose(succ) -> tuple[int, ...]:
    """The successor masks of the reversed relation."""
    pred = [0] * len(succ)
    for u, s in enumerate(succ):
        for v in bits(s):
            pred[v] |= 1 << u
    return tuple(pred)


def _total_order(succ, members: int) -> tuple[int, ...] | None:
    """The vertices of mask ``members`` in the one order the successor
    masks ``succ`` allow when, between members, they are a strict total
    order; None otherwise.

    A member with d successors among the k members goes to position
    k - 1 - d; two members on one position, or one before itself, end the
    read-off. It stands if every member's successors among the members
    are exactly the members placed after it. Proof of exactness: the rules
    between members are then the strict total order of the read-off, which
    has one topological order, so Kahn's sort gives the same sequence.
    O(k) mask operations, against Kahn's two reads of every successor bit.
    """
    k = members.bit_count()
    seq = [-1] * k
    for v in bits(members):
        i = k - 1 - (succ[v] & members).bit_count()
        if i < 0 or seq[i] >= 0:
            return None
        seq[i] = v
    after = 0  # the members placed after seq[i]
    for v in reversed(seq):
        if succ[v] & members != after:
            return None
        after |= 1 << v
    return tuple(seq)


def _toposort(succ, members: int) -> tuple[int, ...]:
    """The vertices of mask ``members`` in the topological order of the
    successor masks ``succ`` that always places the least ready vertex,
    reading only the constraints between members.

    A total order has one topological order, which ``_total_order`` reads
    off the successor counts. Other rules run Kahn's algorithm with a heap
    of the ready vertices, and a cycle among them raises
    OrderConstructionError naming it.
    """
    seq = _total_order(succ, members)
    if seq is not None:
        return seq
    indeg = [0] * len(succ)
    for v in bits(members):
        for w in bits(succ[v] & members):
            indeg[w] += 1
    heap = [v for v in bits(members) if not indeg[v]]  # ascending, so a heap
    seq = []
    while heap:
        v = heapq.heappop(heap)
        seq.append(v)
        for w in bits(succ[v] & members):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(seq) < members.bit_count():
        raise OrderConstructionError(_find_cycle(succ, members & ~mask_of(seq)))
    return tuple(seq)


def _find_cycle(succ, left: int) -> tuple[int, ...]:
    """A cycle among the unplaced vertices ``left``. Vertices with no
    successor left are dropped until none remain, so every vertex left
    leads to a cycle; the walk then follows least successors from the
    least vertex until one repeats."""
    while dead := mask_of(v for v in bits(left) if not succ[v] & left):
        left &= ~dead
    path = [lowest(left)]
    while True:
        v = lowest(succ[path[-1]] & left)
        if v in path:
            return tuple(path[path.index(v):])
        path.append(v)


def _pair_rules(g: Graph, p: BabPartition, rel_x, rel_y) -> tuple[list[int], list[int]]:
    """The pairwise placement rules of both orders, each pair classified
    once, as two lists of successor masks: ``keep``, which both orders
    obey, and ``flip``, which the first order obeys and the second reverses.

    ``flip`` starts as the relations, each antisymmetric on its own side;
    only the pairs neither orders are walked. An X pair is ordered by
    Y-neighborhood inclusion (smaller first) and a Y pair by X-neighborhood
    nesting (bigger first), equal masks by ascending id, in ``keep``. A
    private a and a private b, never adjacent and so never related, that
    are not nested put the b first in ``keep``; only the second order reads
    that rule. A Y pair neither related nor nested goes to ``flip`` by the
    private-difference pattern, a's on the left. The pattern cannot match a
    pair both ways, since the private sides are disjoint and the pair is
    not nested, so the second order's mirrored pattern is ``flip`` reversed.
    """
    keep = [0] * g.n
    flip = [x | y for x, y in zip(rel_x, rel_y)]

    def unrelated(members: int, side: int, rel):
        """The pairs u < v of ``members`` that ``rel`` leaves unordered,
        with their ``side`` neighborhoods."""
        vs = [(v, g.adj[v] & side) for v in bits(members)]
        for i, (u, mu) in enumerate(vs):
            for v, mv in vs[i + 1:]:
                if not (rel[u] >> v | rel[v] >> u) & 1:
                    yield u, mu, v, mv

    for u, mu, v, mv in unrelated(p.x_all, p.y, rel_x):
        if mu & ~mv == 0:  # u < v, so equal masks put u first
            keep[u] |= 1 << v
        elif mv & ~mu == 0:
            keep[v] |= 1 << u
        elif p.a_only >> u & p.b_only >> v & 1:
            keep[v] |= 1 << u
        elif p.b_only >> u & p.a_only >> v & 1:
            keep[u] |= 1 << v
    for u, mu, v, mv in unrelated(p.y, p.x_all, rel_y):
        if mv & ~mu == 0:
            keep[u] |= 1 << v
        elif mu & ~mv == 0:
            keep[v] |= 1 << u
        elif mu & ~mv & ~p.a_only == 0 and mv & ~mu & ~p.b_only == 0:
            flip[u] |= 1 << v
        elif mv & ~mu & ~p.a_only == 0 and mu & ~mv & ~p.b_only == 0:
            flip[v] |= 1 << u
    return keep, flip


def _nested_sequence(g: Graph, members: int, y: int) -> tuple[int, ...] | None:
    """The vertices of mask ``members`` sorted by Y-neighborhood size, ties
    by id, when their Y-neighborhoods form an inclusion chain in that order;
    None when two consecutive ones are not nested."""
    seq = sorted(bits(members), key=lambda v: ((g.adj[v] & y).bit_count(), v))
    for prev, cur in zip(seq, seq[1:]):
        if g.adj[prev] & y & ~g.adj[cur]:
            return None
    return tuple(seq)


def build_order1(g: Graph, p: BabPartition, rules: tuple[list[int], list[int]],
                 a_seq: tuple[int, ...], b_seq: tuple[int, ...]) -> tuple[int, ...]:
    """First total order: the private a's in their nesting sequence
    ``a_seq``, the shared block, then the private b's, in theirs, ``b_seq``,
    interleaved into Y around the Y-neighborhood of the last a.

    The shared block and Y follow the pair rules ``rules`` of
    ``_pair_rules`` as they stand. The b's follow only their sequence: the
    Y-neighbors of the last a come before the first b, the rest of Y after
    the last b. Unconstrained pairs fall to the ascending-id topological
    tie-break.

    When there are a's and b's and Y's rules alone are a total order T, the
    b's merge into T. The only arcs between the b's and Y are the fences
    above, so Kahn's ready set holds at most the next y of T and the next b.
    No y outside the last a's neighborhood N is ready before the last b, and
    the first b waits for all of N; so the block is T's prefix N, the b's,
    then the rest of T, or a cycle when N is not a prefix of T. A cycle,
    rules on Y that are not a total order, and a block with no fences go to
    ``_toposort``, with the fences as arcs.
    """
    succ = [k | f for k, f in zip(*rules)]
    head = a_seq + _toposort(succ, p.shared)
    fenced = bool(a_seq and b_seq)
    if fenced:
        nya = g.adj[a_seq[-1]] & p.y
        ys = _total_order(succ, p.y)
        cut = nya.bit_count()
        if ys is not None and mask_of(ys[:cut]) == nya:
            return head + ys[:cut] + b_seq + ys[cut:]
    for b in bits(p.b_only):  # the b's sort with Y, where no X rule applies
        succ[b] = 0
    for prev, cur in zip(b_seq, b_seq[1:]):
        succ[prev] = 1 << cur
    if fenced:
        for y in bits(nya):
            succ[y] |= 1 << b_seq[0]
        succ[b_seq[-1]] |= p.y & ~nya
    return head + _toposort(succ, p.b_only | p.y)


def build_order2(g: Graph, p: BabPartition, rules: tuple[list[int], list[int]]) -> tuple[int, ...]:
    """Second total order: all of X, then Y, each by the pair rules
    ``rules`` with the oriented relations and the difference pattern
    reversed; ``keep`` puts the b before the a of mutually non-nested
    private pairs."""
    keep, flip = rules
    succ = [k | f for k, f in zip(keep, _transpose(flip))]
    return _toposort(succ, p.x_all) + _toposort(succ, p.y)


@dataclass(frozen=True)
class SufficiencyVerdict:
    """Outcome of the order construction.

    ``orders`` holds the two orders when construction succeeded; otherwise
    ``reason`` names the failed condition or the constraint cycle.
    """

    orders: tuple[tuple[int, ...], tuple[int, ...]] | None
    reason: str = ""


def check_sufficient(g: Graph, p: BabPartition, cg: ChordGraph, nec: NecessaryVerdict) -> SufficiencyVerdict:
    """Evaluate the sufficiency conditions and construct the orders.

    The sufficient conditions include the necessary ones, so ``nec`` must be
    the PASS verdict of ``check_necessary`` on the same (g, p, cg); any other
    status raises ScopeError. Its coloring and rigid-free report are reused,
    leaving the partial orders, the nesting and the construction to check.
    The nesting is tested once, after orienting: ``_nested_sequence`` of
    each private side, both read by ``build_order1``.

    Construction puts a rigid-free private side in the role of X_a. When
    only the b-side passes the rigid-free test, the instance is oriented
    first: X_a and X_b trade roles before anything is derived. The
    exchange keeps the chord graph's nodes and edges, so ``cg`` serves as
    is, and trades the two forced sets, so with a forced node the
    canonical coloring of the exchanged instance is the complement of
    ``nec.coloring`` within the non-isolated nodes; with none it is
    ``nec.coloring`` itself. The relations, the nesting and the placement
    rules are then computed once, for the oriented instance, and the rules
    are read by both builders. The resulting orders apply to the graph
    unchanged.
    """
    if nec.status is not NecessaryStatus.PASS:
        raise ScopeError(f"sufficiency needs a passing necessary verdict, got {nec.status.value}")
    red = nec.coloring
    if not nec.rigid_free.side_a_ok:
        p = p.mirrored()
        if any(nec.forced):
            red = cg.non_isolated_mask & ~red
    rel_x, rel_y = derive_relations(g, p, cg, red)
    if not (validate_partial_order(rel_x).ok and validate_partial_order(rel_y).ok):
        return SufficiencyVerdict(orders=None, reason="partial-orders")
    a_seq = _nested_sequence(g, p.a_only, p.y)
    b_seq = _nested_sequence(g, p.b_only, p.y)
    if a_seq is None or b_seq is None:
        return SufficiencyVerdict(orders=None, reason="nesting")
    rules = _pair_rules(g, p, rel_x, rel_y)
    try:
        orders = (build_order1(g, p, rules, a_seq, b_seq), build_order2(g, p, rules))
    except OrderConstructionError as exc:
        return SufficiencyVerdict(orders=None, reason=f"order construction cycled through {exc.cycle}")
    return SufficiencyVerdict(orders=orders)
