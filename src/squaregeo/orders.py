"""Derived vertex relations and the construction of the two linear orders.

From an admissible chord-graph coloring, each rigid pair orients one
X-relation pair and one Y-relation pair. When both relations are partial
orders and the nesting and rigid-free requirements hold, two total orders are
assembled from pairwise placement rules; their interval completions are
disjoint for every instance in scope, which the caller re-verifies. The
coloring and the rigid-free report come from the passing necessary verdict
and are not recomputed here.

The coloring arrives as two node-index masks. A relation, like the set of
placement constraints, is one successor mask per vertex: bit v of
``succ[u]`` says u comes before v.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .chords import ChordGraph
from .errors import OrderConstructionError, ScopeError
from .graph import BabPartition, Graph, bits, lowest, mask_of, nx_mask, ny_mask
from .necessary import NecessaryStatus, NecessaryVerdict, TwoColoring


@dataclass(frozen=True)
class DerivedRelation:
    """A strict binary relation on the vertices: ``succ[u]`` is the mask of
    the v with u before v."""

    succ: tuple[int, ...]

    def related(self, u: int, v: int) -> bool:
        return bool((self.succ[u] >> v) & 1)


def derive_relations(cg: ChordGraph, f: TwoColoring, p: BabPartition) -> tuple[DerivedRelation, DerivedRelation]:
    """Orient X and Y pairs from every chord-graph edge under coloring f.

    An edge joins the chords (x, y') and (x', y) of the rigid pair
    {xy, x'y'}; red on the (x, y') side puts x before x' and y before y'.
    Each edge is read once, from its red end: f is proper and isolated
    nodes have no edges, so every edge has exactly one red end.
    """
    n = (p.x_all | p.y).bit_length()  # the partition covers 0..n-1
    x_succ = [0] * n
    y_succ = [0] * n
    for i in bits(f.red):
        x, yp = cg.nodes[i]
        for j in bits(cg.adj[i]):
            xp, y = cg.nodes[j]
            x_succ[x] |= 1 << xp
            y_succ[y] |= 1 << yp
    return DerivedRelation(tuple(x_succ)), DerivedRelation(tuple(y_succ))


@dataclass(frozen=True)
class PartialOrderCheck:
    ok: bool
    antisymmetry_violation: tuple[int, int] | None = None
    transitivity_violation: tuple[int, int, int] | None = None


def validate_partial_order(rel: DerivedRelation) -> PartialOrderCheck:
    """Antisymmetry, then transitivity through successor-mask containment;
    each reports its least violation."""
    succ = rel.succ
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


@dataclass(frozen=True)
class LinearOrder:
    """A total order on V, stored as the vertex sequence plus rank array."""

    seq: tuple[int, ...]
    rank: tuple[int, ...]

    @classmethod
    def from_seq(cls, seq) -> "LinearOrder":
        seq = tuple(seq)
        rank = [0] * len(seq)
        for i, v in enumerate(seq):
            rank[v] = i
        return cls(seq=seq, rank=tuple(rank))

    def before(self, u: int, v: int) -> bool:
        return self.rank[u] < self.rank[v]

    def __len__(self) -> int:
        return len(self.seq)

    def reversed(self) -> "LinearOrder":
        return LinearOrder.from_seq(self.seq[::-1])


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

    def add_oriented(self, rel: DerivedRelation, u: int, v: int, reverse_rel: bool) -> bool:
        """Order a related pair as ``rel`` does, or reversed; False when
        neither is related to the other."""
        if not (rel.related(u, v) or rel.related(v, u)):
            return False
        if rel.related(u, v) != reverse_rel:
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


def _x_rule_pairs(g, p, rel_x, members: int, reverse_rel: bool, cons: _ConstraintSet):
    """Shared skeleton of rules 1.1 and 2.1 over the X vertices ``members``:
    the oriented relation (reversed in the second order), else Y-neighborhood
    inclusion."""
    xs = [(x, ny_mask(g, p, x)) for x in bits(members)]
    for i, (x, mx) in enumerate(xs):
        for xp, mxp in xs[i + 1:]:
            if not cons.add_oriented(rel_x, x, xp, reverse_rel):
                cons.add_inclusion(x, xp, mx, mxp)


def _y_rule_pairs(g, p, rel_y, reverse_rel: bool, swap_sides: bool, cons: _ConstraintSet):
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


def build_order1(g: Graph, p: BabPartition, rel_x: DerivedRelation, rel_y: DerivedRelation) -> LinearOrder:
    """First total order: private a's, then the shared block, then private
    b's interleaved into Y around the Y-neighborhood of the last a.

    Pairwise rules: shared x's by oriented relation or Y-neighborhood
    inclusion; Y by oriented relation, X-neighborhood inclusion (bigger
    first), or the private-difference pattern; all of X_a before Y; the
    Y-neighbors of the nesting-maximal private a before the first b, the
    rest of Y after the last b. Unconstrained pairs fall to the ascending-id
    topological tie-break.
    """
    cons = _ConstraintSet(g.n)
    _x_rule_pairs(g, p, rel_x, p.shared, reverse_rel=False, cons=cons)
    for seq in (p.a_seq, p.b_seq):
        for prev, cur in zip(seq, seq[1:]):
            cons.add(prev, cur)
    if p.a_seq:
        cons.add_all(1 << p.a_seq[-1], p.shared)
    if p.b_seq:
        cons.add_all(p.shared, 1 << p.b_seq[0])

    _y_rule_pairs(g, p, rel_y, reverse_rel=False, swap_sides=False, cons=cons)

    if p.a_seq and p.b_seq:
        nya = ny_mask(g, p, p.a_seq[-1])
        cons.add_all(nya, 1 << p.b_seq[0])
        cons.add_all(1 << p.b_seq[-1], p.y & ~nya)
    cons.add_all(p.x_a, p.y)
    return LinearOrder.from_seq(cons.toposort())


def build_order2(g: Graph, p: BabPartition, rel_x: DerivedRelation, rel_y: DerivedRelation) -> LinearOrder:
    """Second total order: all of X (oriented relation reversed, inclusion
    kept; mutually non-nested private pairs put the b before the a), then Y
    with the oriented relation reversed and the difference pattern mirrored."""
    cons = _ConstraintSet(g.n)
    _x_rule_pairs(g, p, rel_x, p.x_all, reverse_rel=True, cons=cons)
    for a in bits(p.a_only):
        nya = ny_mask(g, p, a)
        for b in bits(p.b_only):
            nyb = ny_mask(g, p, b)
            if nya & ~nyb and nyb & ~nya:
                cons.add(b, a)

    _y_rule_pairs(g, p, rel_y, reverse_rel=True, swap_sides=True, cons=cons)

    cons.add_all(p.x_all, p.y)
    return LinearOrder.from_seq(cons.toposort())


@dataclass(frozen=True)
class SufficiencyVerdict:
    """Outcome of the order construction.

    ``orders`` holds the two orders when construction succeeded; otherwise
    ``reason`` names the failed condition or the constraint cycle.
    ``swapped`` records that X_a and X_b traded roles before construction.
    """

    orders: tuple[LinearOrder, LinearOrder] | None
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
    f = nec.coloring
    rel_x, rel_y = derive_relations(cg, f, p)
    if not (validate_partial_order(rel_x).ok and validate_partial_order(rel_y).ok):
        return SufficiencyVerdict(orders=None, reason="partial-orders")
    if not (p.a_nested and p.b_nested):
        return SufficiencyVerdict(orders=None, reason="nesting")

    swapped = not nec.rigid_free.side_a_ok
    if swapped:
        p = p.mirrored()
        if nec.forced.script_a_mask or nec.forced.script_b_mask:
            f = TwoColoring(red=f.blue, blue=f.red)
            rel_x, rel_y = derive_relations(cg, f, p)
    try:
        orders = (build_order1(g, p, rel_x, rel_y), build_order2(g, p, rel_x, rel_y))
    except OrderConstructionError as exc:
        return SufficiencyVerdict(
            orders=None, swapped=swapped, reason=f"order construction cycled through {exc.cycle}"
        )
    return SufficiencyVerdict(orders=orders, swapped=swapped)
