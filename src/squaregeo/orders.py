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

Every block the orders sort is a tournament under its rules: each pair of
members has exactly one direction. So a block's order is read off its
successor counts, or its rules have a cycle, which is named. The proof:

- The coloring is proper on the non-isolated chord nodes, so
  ``derive_relations`` orients the X pair and the Y pair of every rigid
  pair.
- An X pair x, x' that is adjacent and whose Y-neighborhoods cross, with
  y in N_Y(x) - N(x') and y' in N_Y(x') - N(x), is the rigid pair
  x-y-y'-x', so it is related. An adjacent pair that is not related is
  therefore nested, and goes in ``keep``. A pair that is not adjacent is a
  private a and a private b, and goes in ``keep`` whether nested or not.
- A Y pair y, y' is always adjacent. If some x in N_X(y) - N(y') and x' in
  N_X(y') - N(y) are adjacent, the pair is related. Otherwise every such x
  and x' are non-adjacent, so one difference is all private a's and the
  other all private b's, and the pattern branch puts the pair in
  ``flip``; a nested pair goes in ``keep``.
- Each pair gets exactly one rule: the walk of ``_pair_rules`` skips the
  related pairs, ``validate_partial_order`` has already made each
  relation antisymmetric, and the ``keep`` and ``flip`` branches exclude
  each other.

So ``keep | flip`` (first order) and ``keep`` with ``flip`` reversed
(second order) are tournaments on each block, and a tournament is a strict
total order exactly when it has no cycle.

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


def validate_partial_order(succ: tuple[int, ...]) -> bool:
    """Whether the successor masks ``succ`` are antisymmetric and, through
    successor-mask containment, transitive."""
    for u, s in enumerate(succ):
        for v in bits(s & ~(1 << u)):
            if (succ[v] >> u) & 1:
                return False
    return all(not succ[u] & ~s for s in succ for u in bits(s))


def _transpose(succ) -> tuple[int, ...]:
    """The successor masks of the reversed relation."""
    pred = [0] * len(succ)
    for u, s in enumerate(succ):
        for v in bits(s):
            pred[v] |= 1 << u
    return tuple(pred)


def _total_order(succ, members: int) -> tuple[int, ...]:
    """The vertices of mask ``members`` in the one order the successor
    masks ``succ`` allow between members, which must be a tournament there:
    a strict total order, or else a cycle, which raises
    OrderConstructionError naming it.

    A member with d successors among the k members goes to position
    k - 1 - d; two members on one position, or one before itself, end the
    read-off. It stands if every member's successors among the members
    are exactly the members placed after it. Those rules are then the
    strict total order of the read-off. O(k) mask operations.
    """
    k = members.bit_count()
    seq = [-1] * k
    for v in bits(members):
        i = k - 1 - (succ[v] & members).bit_count()
        if i < 0 or seq[i] >= 0:
            raise OrderConstructionError(_find_cycle(succ, members))
        seq[i] = v
    after = 0  # the members placed after seq[i]
    for v in reversed(seq):
        if succ[v] & members != after:
            raise OrderConstructionError(_find_cycle(succ, members))
        after |= 1 << v
    return tuple(seq)


def _find_cycle(succ, left: int) -> tuple[int, ...]:
    """A cycle among the vertices ``left`` under the successor masks
    ``succ``. Vertices with no successor or no predecessor left are dropped
    until none remain, so every vertex left lies on a walk from a cycle to
    a cycle; the walk then follows least successors from the least vertex
    until one repeats. Raises ValueError when nothing is left: the rules
    are acyclic, so they were not a tournament."""
    while True:
        ahead = 0  # the vertices some vertex left precedes
        for v in bits(left):
            ahead |= succ[v]
        dead = left & ~ahead | mask_of(v for v in bits(left) if not succ[v] & left)
        if not dead:
            break
        left &= ~dead
    if not left:
        raise ValueError("the rules between the members are acyclic but not a total order")
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
    placed in Y's order around the Y-neighborhood N of the last a.

    The shared block and Y are each read off ``keep | flip`` of the pair
    rules ``rules`` of ``_pair_rules``, or raise their cycle; no rule is
    added. With a's and b's, N comes before the first b and the rest of Y
    after the last b, so the b's go between N and the rest of Y when N is a
    prefix of Y's order. When it is not, the first y of Y's order outside
    N comes before the last y' in N, and y, y', then the b's back to y is
    the cycle raised. With no a or no b, nothing ties the b's to Y, and
    they interleave with Y's order by least id, as the topological order
    that places the least ready vertex would.
    """
    succ = [k | f for k, f in zip(*rules)]
    head = a_seq + _total_order(succ, p.shared)
    ys = _total_order(succ, p.y)
    if not (a_seq and b_seq):
        return head + tuple(heapq.merge(b_seq, ys))
    nya = g.adj[a_seq[-1]] & p.y
    cut = nya.bit_count()
    if mask_of(ys[:cut]) != nya:
        y_out = next(y for y in ys if not nya >> y & 1)
        y_in = next(y for y in reversed(ys) if nya >> y & 1)
        raise OrderConstructionError((y_out, y_in, *b_seq))
    return head + ys[:cut] + b_seq + ys[cut:]


def build_order2(p: BabPartition, rules: tuple[list[int], list[int]]) -> tuple[int, ...]:
    """Second total order: all of X, then Y, each read off the pair rules
    ``rules`` with the oriented relations and the difference pattern
    reversed; ``keep`` puts the b before the a of mutually non-nested
    private pairs."""
    keep, flip = rules
    succ = [k | f for k, f in zip(keep, _transpose(flip))]
    return _total_order(succ, p.x_all) + _total_order(succ, p.y)


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
    if not (validate_partial_order(rel_x) and validate_partial_order(rel_y)):
        return SufficiencyVerdict(orders=None, reason="partial-orders")
    a_seq = _nested_sequence(g, p.a_only, p.y)
    b_seq = _nested_sequence(g, p.b_only, p.y)
    if a_seq is None or b_seq is None:
        return SufficiencyVerdict(orders=None, reason="nesting")
    rules = _pair_rules(g, p, rel_x, rel_y)
    try:
        orders = (build_order1(g, p, rules, a_seq, b_seq), build_order2(p, rules))
    except OrderConstructionError as exc:
        return SufficiencyVerdict(orders=None, reason=f"order construction cycled through {exc.cycle}")
    return SufficiencyVerdict(orders=orders)
