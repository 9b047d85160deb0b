"""Derived vertex relations and the construction of the two linear orders.

From an admissible chord-graph coloring, each rigid pair orients one
X-relation pair and one Y-relation pair. When both relations are partial
orders and the nesting and rigid-free requirements hold, two total orders are
assembled from pairwise placement rules; their interval completions are
disjoint for every instance in scope, which the caller re-verifies. The
coloring and the rigid-free report come from the passing necessary verdict
and are not recomputed here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .chords import ChordGraph, compute_ab_sets
from .errors import OrderConstructionError, ScopeError
from .graph import BabPartition, Graph, nx_mask, ny_mask
from .necessary import BLUE, NecessaryStatus, NecessaryVerdict, TwoColoring


@dataclass(frozen=True)
class DerivedRelation:
    """A strict binary relation over a vertex domain (reflexivity implied)."""

    domain: frozenset[int]
    pairs: frozenset[tuple[int, int]]

    def related(self, u: int, v: int) -> bool:
        return (u, v) in self.pairs


def derive_relations(cg: ChordGraph, f: TwoColoring, p: BabPartition) -> tuple[DerivedRelation, DerivedRelation]:
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
        DerivedRelation(domain=frozenset(p.x_all), pairs=frozenset(x_pairs)),
        DerivedRelation(domain=frozenset(p.y), pairs=frozenset(y_pairs)),
    )


@dataclass(frozen=True)
class PartialOrderCheck:
    ok: bool
    antisymmetry_violation: tuple[int, int] | None = None
    transitivity_violation: tuple[int, int, int] | None = None


def validate_partial_order(rel: DerivedRelation) -> PartialOrderCheck:
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


def _y_rule_pairs(g, p, rel_y, reverse_rel: bool, swap_sides: bool, cons: _ConstraintSet):
    """Shared skeleton of rules 1.3/1.4 and 2.3/2.4.

    Nesting (same direction in both orders) and the oriented relation pairs;
    the difference-pattern rule applies only to pairs neither related nor
    nested, where its two clauses cannot clash with the nesting clause.
    """
    ys = sorted(p.y)
    for i, y in enumerate(ys):
        my = nx_mask(g, p, y)
        for yp in ys[i + 1:]:
            myp = nx_mask(g, p, yp)
            related = rel_y.related(y, yp) or rel_y.related(yp, y)
            nested = my & ~myp == 0 or myp & ~my == 0
            if related:
                if rel_y.related(y, yp) != reverse_rel:
                    cons.add(y, yp)
                else:
                    cons.add(yp, y)
                continue
            if nested:
                # bigger X-neighborhood first in both orders
                cons.add_inclusion(y, yp, ~my, ~myp)
                continue
            left_target = p.b_only_mask if swap_sides else p.a_only_mask
            right_target = p.a_only_mask if swap_sides else p.b_only_mask
            if my & ~myp & ~left_target == 0 and myp & ~my & ~right_target == 0:
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
    shared = sorted(p.shared)

    for i, x in enumerate(shared):
        for xp in shared[i + 1:]:
            if rel_x.related(x, xp):
                cons.add(x, xp)
            elif rel_x.related(xp, x):
                cons.add(xp, x)
            else:
                cons.add_inclusion(x, xp, ny_mask(g, p, x), ny_mask(g, p, xp))

    for prev, cur in zip(p.a_seq, p.a_seq[1:]):
        cons.add(prev, cur)
    for prev, cur in zip(p.b_seq, p.b_seq[1:]):
        cons.add(prev, cur)
    if p.a_seq:
        for x in shared:
            cons.add(p.a_seq[-1], x)
    if p.b_seq:
        for x in shared:
            cons.add(x, p.b_seq[0])

    _y_rule_pairs(g, p, rel_y, reverse_rel=False, swap_sides=False, cons=cons)

    if p.a_seq and p.b_seq:
        a_last = p.a_seq[-1]
        nya = ny_mask(g, p, a_last)
        for y in sorted(p.y):
            if (nya >> y) & 1:
                cons.add(y, p.b_seq[0])
            else:
                cons.add(p.b_seq[-1], y)

    for x in sorted(p.x_a):
        for y in sorted(p.y):
            cons.add(x, y)

    return LinearOrder.from_seq(cons.toposort())


def build_order2(g: Graph, p: BabPartition, rel_x: DerivedRelation, rel_y: DerivedRelation) -> LinearOrder:
    """Second total order: all of X (oriented relation reversed, inclusion
    kept; mutually non-nested private pairs put the b before the a), then Y
    with the oriented relation reversed and the difference pattern mirrored."""
    cons = _ConstraintSet(g.n)
    xs = sorted(p.x_all)

    for i, x in enumerate(xs):
        for xp in xs[i + 1:]:
            if rel_x.related(x, xp):
                cons.add(xp, x)
            elif rel_x.related(xp, x):
                cons.add(x, xp)
            else:
                cons.add_inclusion(x, xp, ny_mask(g, p, x), ny_mask(g, p, xp))

    for a in sorted(p.a_only):
        nya = ny_mask(g, p, a)
        for b in sorted(p.b_only):
            nyb = ny_mask(g, p, b)
            if nya & ~nyb and nyb & ~nya:
                cons.add(b, a)

    _y_rule_pairs(g, p, rel_y, reverse_rel=True, swap_sides=True, cons=cons)

    for x in xs:
        for y in sorted(p.y):
            cons.add(x, y)

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
        ab = compute_ab_sets(cg, p)
        p = p.mirrored()
        if ab.script_a_mask or ab.script_b_mask:
            f = TwoColoring(red=f.blue, blue=f.red)
            rel_x, rel_y = derive_relations(cg, f, p)
    try:
        orders = (build_order1(g, p, rel_x, rel_y), build_order2(g, p, rel_x, rel_y))
    except OrderConstructionError as exc:
        return SufficiencyVerdict(
            orders=None, swapped=swapped, reason=f"order construction cycled through {exc.cycle}"
        )
    return SufficiencyVerdict(orders=orders, swapped=swapped)
