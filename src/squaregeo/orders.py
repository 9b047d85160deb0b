"""Derived vertex relations and the construction of the two linear orders.

From an admissible chord-graph coloring, each rigid pair orients one
X-relation pair and one Y-relation pair. When both relations are partial
orders and both private sides are totally nested, two total orders are laid
out as blocks in sequence: the a's, the shared block, then the b's within Y;
and X, then Y. Pairwise placement rules order each block. Their interval
completions are disjoint for every instance in scope, which the caller
re-verifies. The coloring and the rigid-free report come from the passing
necessary verdict and are not recomputed here.

The coloring arrives as its red node-index mask; blue is the rest of the
non-isolated nodes. A relation, like the set of placement constraints, is
a tuple of successor masks, one per vertex: bit v of ``succ[u]`` says u
comes before v. An order is its vertex sequence, a tuple.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .chords import ChordGraph
from .errors import OrderConstructionError, ScopeError
from .graph import BabPartition, Graph, bits, lowest, mask_of, nx_mask, ny_mask
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
    at least one such y. The x-ends of the neighbors are then exactly
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
            cx = mask_of(xp for xp in bits(g.adj[x] & p.x_all) if ny & ~g.adj[xp])
            for k in bits(block):
                yp = cg.nodes[start + k][1]
                ends = cx & g.adj[yp]
                x_succ[x] |= ends
                common = ny
                for xp in bits(ends):
                    common &= g.adj[xp]
                y_pred[yp] |= ny & ~common
    y_succ = [0] * g.n
    for yp, ys in enumerate(y_pred):
        for y in bits(ys):
            y_succ[y] |= 1 << yp
    return tuple(x_succ), tuple(y_succ)


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


class _ConstraintSet:
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
        before = rel[u] >> v & 1
        if not (before or rel[v] >> u & 1):
            return False
        if before != reverse_rel:
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

    def toposort(self, members: int) -> tuple[int, ...]:
        """The vertices of mask ``members`` in the topological order that
        always places the least ready vertex, reading only the constraints
        between members: a builder adds none across its blocks."""
        indeg = [0] * len(self.succ)
        for v in bits(members):
            for w in bits(self.succ[v] & members):
                indeg[w] += 1
        heap = [v for v in bits(members) if not indeg[v]]  # ascending, so a heap
        seq = []
        while heap:
            v = heapq.heappop(heap)
            seq.append(v)
            for w in bits(self.succ[v] & members):
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, w)
        if len(seq) < members.bit_count():
            raise OrderConstructionError(self._find_cycle(members & ~mask_of(seq)))
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


def _x_rule_pairs(g, p, rel_x, members: int, reverse_rel: bool, cons: _ConstraintSet):
    """Shared skeleton of rules 1.1 and 2.1 over the X vertices ``members``:
    the oriented relation (reversed in the second order), else Y-neighborhood
    inclusion."""
    xs = [(x, ny_mask(g, p, x)) for x in bits(members)]
    for i, (x, mx) in enumerate(xs):
        for xp, mxp in xs[i + 1:]:
            if not cons.add_oriented(rel_x, x, xp, reverse_rel):
                cons.add_inclusion(x, xp, mx, mxp)


def _y_rule_pairs(g, p, rel_y, reverse_rel: bool, cons: _ConstraintSet):
    """Shared skeleton of rules 1.3/1.4 and 2.3/2.4.

    Nesting (same direction in both orders) and the oriented relation pairs;
    the difference-pattern rule applies only to pairs neither related nor
    nested, where its two clauses cannot clash with the nesting clause. The
    second order reverses the relation and mirrors the pattern's sides.
    """
    left_target = p.b_only if reverse_rel else p.a_only
    right_target = p.a_only if reverse_rel else p.b_only
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


def build_order1(g: Graph, p: BabPartition, rel_x: tuple[int, ...], rel_y: tuple[int, ...]) -> tuple[int, ...]:
    """First total order: the private a's in their nesting sequence, the
    shared block, then the private b's interleaved into Y around the
    Y-neighborhood of the last a. Raises ScopeError unless both sides are
    totally nested, since ``a_seq`` or ``b_seq`` is empty otherwise.

    Pairwise rules, each inside the shared block or inside the b's plus Y:
    shared x's by oriented relation or Y-neighborhood inclusion; Y by
    oriented relation, X-neighborhood inclusion (bigger first), or the
    private-difference pattern; the b's in sequence, the Y-neighbors of the
    last a before the first b, the rest of Y after the last b. Unconstrained
    pairs fall to the ascending-id topological tie-break.
    """
    if not (p.a_nested and p.b_nested):
        raise ScopeError("the first order needs both private sides totally nested")
    cons = _ConstraintSet(g.n)
    _x_rule_pairs(g, p, rel_x, p.shared, reverse_rel=False, cons=cons)
    for prev, cur in zip(p.b_seq, p.b_seq[1:]):
        cons.add(prev, cur)

    _y_rule_pairs(g, p, rel_y, reverse_rel=False, cons=cons)

    if p.a_seq and p.b_seq:
        nya = ny_mask(g, p, p.a_seq[-1])
        cons.add_all(nya, 1 << p.b_seq[0])
        cons.add_all(1 << p.b_seq[-1], p.y & ~nya)
    return p.a_seq + cons.toposort(p.shared) + cons.toposort(p.b_only | p.y)


def build_order2(g: Graph, p: BabPartition, rel_x: tuple[int, ...], rel_y: tuple[int, ...]) -> tuple[int, ...]:
    """Second total order: all of X (oriented relation reversed, inclusion
    kept; mutually non-nested private pairs put the b before the a), then Y
    with the oriented relation reversed and the difference pattern mirrored;
    every rule stays inside X or inside Y."""
    cons = _ConstraintSet(g.n)
    _x_rule_pairs(g, p, rel_x, p.x_all, reverse_rel=True, cons=cons)
    for a in bits(p.a_only):
        nya = ny_mask(g, p, a)
        for b in bits(p.b_only):
            nyb = ny_mask(g, p, b)
            if nya & ~nyb and nyb & ~nya:
                cons.add(b, a)

    _y_rule_pairs(g, p, rel_y, reverse_rel=True, cons=cons)
    return cons.toposort(p.x_all) + cons.toposort(p.y)


@dataclass(frozen=True)
class SufficiencyVerdict:
    """Outcome of the order construction.

    ``orders`` holds the two orders when construction succeeded; otherwise
    ``reason`` names the failed condition or the constraint cycle.
    ``swapped`` records that X_a and X_b traded roles before construction.
    """

    orders: tuple[tuple[int, ...], tuple[int, ...]] | None
    swapped: bool = False
    reason: str = ""


def check_sufficient(g: Graph, p: BabPartition, cg: ChordGraph, nec: NecessaryVerdict) -> SufficiencyVerdict:
    """Evaluate the sufficiency conditions and construct the orders.

    The sufficient conditions include the necessary ones, so ``nec`` must be
    the PASS verdict of ``check_necessary`` on the same (g, p, cg); any other
    status raises ScopeError. Its coloring and rigid-free report are reused,
    leaving the partial orders, the nesting and the construction to check.

    When only the b-side passes the rigid-free test, the roles of X_a and
    X_b are exchanged before construction. The exchange keeps the chord
    graph's nodes and edges, so ``cg`` serves as is, and trades the two
    forced sets, so the canonical coloring of the exchanged instance is the
    current one with red and blue swapped; with no forced node it stays
    unchanged. The resulting orders apply to the graph unchanged.
    """
    if nec.status is not NecessaryStatus.PASS:
        raise ScopeError(f"sufficiency needs a passing necessary verdict, got {nec.status.value}")
    red = nec.coloring
    rel_x, rel_y = derive_relations(g, p, cg, red)
    if not (validate_partial_order(rel_x).ok and validate_partial_order(rel_y).ok):
        return SufficiencyVerdict(orders=None, reason="partial-orders")
    if not (p.a_nested and p.b_nested):
        return SufficiencyVerdict(orders=None, reason="nesting")

    swapped = not nec.rigid_free.side_a_ok
    if swapped:
        p = p.mirrored()
        if any(nec.forced):
            rel_x, rel_y = derive_relations(g, p, cg, cg.non_isolated_mask & ~red)
    try:
        orders = (build_order1(g, p, rel_x, rel_y), build_order2(g, p, rel_x, rel_y))
    except OrderConstructionError as exc:
        return SufficiencyVerdict(
            orders=None, swapped=swapped, reason=f"order construction cycled through {exc.cycle}"
        )
    return SufficiencyVerdict(orders=orders, swapped=swapped)
