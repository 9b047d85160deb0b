"""Necessary conditions: constrained 2-coloring and the rigid-free test.

A square geometric instance must have a bipartite chord graph admitting a
proper 2-coloring with every forced-red node red and every forced-blue node
blue, and at least one private side must be rigid-free. Failures come with
re-checkable witnesses.

Sets of chord-graph nodes, the coloring's two classes and the forced sets,
are node-index masks over ``ChordGraph.nodes``; the rigid region sets are
vertex masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .chords import (
    AbVertexSets,
    ChordGraph,
    RigidPair,
    audit_assumption1,
    build_chord_graph,
    compute_ab_sets,
    y_end_masks,
)
from .errors import ScopeError
from .graph import BabPartition, Graph, bits, lowest, mask_of, ny_mask, union_of


@dataclass(frozen=True)
class TwoColoring:
    """A proper 2-coloring of the non-isolated chord-graph nodes, as two
    node-index masks; isolated nodes are in neither."""

    red: int
    blue: int


@dataclass(frozen=True)
class ColoringRefutation:
    """Why no admissible coloring exists.

    kind 'odd-cycle' carries a shortest odd cycle (tuple of nodes); kind
    'forced-conflict' carries the two nodes that cannot both get their
    forced color: two forced-red (or two forced-blue) nodes the proper
    coloring puts in different classes, or a forced-red and a forced-blue
    node it puts in the same class.
    """

    kind: str
    cycle: tuple[tuple[int, int], ...] = ()
    conflict: tuple[tuple[int, int], ...] = ()
    detail: str = ""


def _layer_masks(order: list[int], depth: list[int]) -> list[int]:
    """One node mask per BFS depth."""
    layers = [0] * (depth[order[-1]] + 1)
    for v in order:
        layers[depth[v]] |= 1 << v
    return layers


def _bfs_coloring(cg: ChordGraph) -> tuple[int, bool]:
    """Color the non-isolated nodes by BFS depth parity from the least one;
    returns the mask of the even-depth nodes and whether some edge joins two
    nodes of one class, that is, some node's neighbor mask meets its own BFS
    layer.

    A non-isolated node the BFS leaves unreached raises ScopeError, so the
    scope check takes precedence over any refutation.
    """
    live = cg.non_isolated_mask
    if not live:
        return 0, False
    order, depth, _ = cg.bfs(lowest(live))
    if len(order) < live.bit_count():
        raise ScopeError("chord graph has several non-isolated components")
    layers = _layer_masks(order, depth)
    conflict = any(cg.adj[v] & layers[depth[v]] for v in order)
    return sum(layers[::2]), conflict  # the layers are disjoint


def _shortest_odd_cycle(cg: ChordGraph) -> tuple[int, ...]:
    """Shortest odd cycle, from a BFS rooted at every non-isolated node.

    An edge u < v inside a BFS layer closes the cycle from u up the parent
    chain to the nearest common ancestor and down to v. Roots go ascending,
    edges in queue order of u then ascending v; the first strictly shortest
    cycle is kept, and a triangle ends the search at once.
    """
    best: tuple[int, ...] | None = None
    for root in bits(cg.non_isolated_mask):
        order, depth, parent = cg.bfs(root)
        layers = _layer_masks(order, depth)
        for u in order:
            for v in bits(cg.adj[u] & layers[depth[u]] >> (u + 1) << (u + 1)):
                a, b, k = u, v, 0
                while a != b:
                    a, b, k = parent[a], parent[b], k + 1
                if best is not None and 2 * k + 1 >= len(best):
                    continue
                up, down = [u], [v]
                for _ in range(k):
                    up.append(parent[up[-1]])
                    down.append(parent[down[-1]])
                best = tuple(up + down[-2::-1])
                if k == 1:
                    return best
    assert best is not None
    return best


def color_constrained(cg: ChordGraph, ab: AbVertexSets) -> TwoColoring | ColoringRefutation:
    """2-color the chord graph with script-A red and script-B blue.

    Requires the non-isolated part to be connected (audit upstream); a
    disconnected chord graph raises ScopeError. The coloring is canonical:
    BFS from the lexicographically least node, then a global swap so the
    constraint holds (root red when no constraint applies). A conflict
    names the least node of each class or forced set involved.
    """
    even, conflict = _bfs_coloring(cg)
    if conflict:
        cyc = _shortest_odd_cycle(cg)
        return ColoringRefutation(
            kind="odd-cycle",
            cycle=tuple(cg.nodes[i] for i in cyc),
            detail=f"odd cycle of length {len(cyc)}",
        )

    odd = cg.non_isolated_mask & ~even
    sa, sb = ab.script_a_mask, ab.script_b_mask
    for group, name in ((sa, "forced-red"), (sb, "forced-blue")):
        if group & even and group & odd:
            return ColoringRefutation(
                kind="forced-conflict",
                conflict=(cg.nodes[lowest(group & even)], cg.nodes[lowest(group & odd)]),
                detail=f"{name} nodes fall in both color classes",
            )
    # each forced set now lies inside one class
    if (sa & even and sb & even) or (sa & odd and sb & odd):
        return ColoringRefutation(
            kind="forced-conflict",
            conflict=(cg.nodes[lowest(sa)], cg.nodes[lowest(sb)]),
            detail="a forced-red and a forced-blue node share a color class",
        )
    red = odd if sa & odd or sb & even else even
    return TwoColoring(red=red, blue=cg.non_isolated_mask & ~red)


def rigid_region_sets(cg: ChordGraph) -> tuple[int, int]:
    """R(X_a), R(X_b) as vertex masks: y's appearing in a non-isolated node
    whose x-end lies in X_a (resp. X_b); shared x-ends contribute to both."""
    live = cg.non_isolated_mask

    def y_ends(nodes: int) -> int:
        return mask_of(cg.nodes[i][1] for i in bits(nodes))

    return y_ends(live & ~cg.b_vertex_mask), y_ends(live & ~cg.a_vertex_mask)


@dataclass(frozen=True)
class RigidFreeReport:
    """Emptiness test per private side, with its witnesses.

    Side a holds when no vertex v of X_a minus X_b admits a rigid pair whose
    x-ends are both shared, or split between a shared and a private-b vertex,
    with both y-ends inside N_Y(v); side b is symmetric. Only private
    vertices are quantified: a shared vertex may trap such a pair without
    refuting anything. Each violation pairs a trapped private vertex,
    ascending, with the first such rigid pair in chord-edge order.
    """

    a_violations: tuple[tuple[int, RigidPair], ...]
    b_violations: tuple[tuple[int, RigidPair], ...]

    @property
    def side_a_ok(self) -> bool:
        return not self.a_violations

    @property
    def side_b_ok(self) -> bool:
        return not self.b_violations

    @property
    def holds(self) -> bool:
        return self.side_a_ok or self.side_b_ok


def check_rigid_free(g: Graph, p: BabPartition, cg: ChordGraph) -> RigidFreeReport:
    """Find the trapped private vertices of each side.

    The region sets are a screen: a trapping pair drops both of its y's
    into the opposite side's region set, so a vertex meeting that set in
    at most one y is clean. The converse is false; a vertex can meet the
    set twice through unrelated rigid pairs. Past the screen, ``near`` is
    the chord nodes with y in N_Y(v) and x-end not private to v's side, and
    v is trapped when a chord edge inside ``near`` has a shared x-end; the
    witness is the first such edge (i ascending, then the lowest j > i).
    """
    r_xa, r_xb = rigid_region_sets(cg)
    by_y = y_end_masks(cg.nodes, g.n)
    shared = ((1 << len(cg.nodes)) - 1) & ~(cg.a_vertex_mask | cg.b_vertex_mask)

    def trapped(private: int, own_nodes: int, region: int):
        out = []
        for v in bits(private):
            ny = ny_mask(g, p, v)
            if (ny & region).bit_count() <= 1:
                continue
            near = union_of(by_y, ny) & ~own_nodes
            for i in bits(near):
                js = cg.adj[i] & near
                if not (shared >> i) & 1:
                    js &= shared  # then the shared x-end must be j's
                js >>= i + 1
                if js:
                    out.append((v, cg.witness(i, i + (js & -js).bit_length())))
                    break
        return tuple(out)

    return RigidFreeReport(
        trapped(p.a_only, cg.a_vertex_mask, r_xb),
        trapped(p.b_only, cg.b_vertex_mask, r_xa),
    )


class NecessaryStatus(Enum):
    PASS = "pass"
    FAIL = "fail"
    OUT_OF_SCOPE = "out-of-scope"


@dataclass(frozen=True)
class NecessaryVerdict:
    """``forced`` holds the forced-color node masks whenever the audit
    passed, so construction need not recompute them."""

    status: NecessaryStatus
    forced: AbVertexSets | None = None
    coloring: TwoColoring | None = None
    refutation: ColoringRefutation | None = None
    rigid_free: RigidFreeReport | None = None
    reason: str = ""


def check_necessary(g: Graph, p: BabPartition, cg: ChordGraph | None = None) -> NecessaryVerdict:
    """Evaluate both necessary conditions; out-of-scope when the audit fails."""
    if cg is None:
        cg = build_chord_graph(g, p)
    report = audit_assumption1(g, p, cg)
    if not report.compliant:
        return NecessaryVerdict(
            status=NecessaryStatus.OUT_OF_SCOPE,
            reason="; ".join(report.failures),
        )
    ab = compute_ab_sets(cg)
    colored = color_constrained(cg, ab)
    if isinstance(colored, ColoringRefutation):
        return NecessaryVerdict(
            status=NecessaryStatus.FAIL,
            forced=ab,
            refutation=colored,
            reason=colored.kind,
        )
    rfr = check_rigid_free(g, p, cg)
    if not rfr.holds:
        return NecessaryVerdict(
            status=NecessaryStatus.FAIL,
            forced=ab,
            coloring=colored,
            rigid_free=rfr,
            reason="rigid-free",
        )
    return NecessaryVerdict(status=NecessaryStatus.PASS, forced=ab, coloring=colored, rigid_free=rfr)
