"""Necessary conditions: constrained 2-coloring and the rigid-free test.

A square geometric instance must have a bipartite chord graph admitting a
proper 2-coloring with every forced-red node red and every forced-blue node
blue, and at least one private side must be rigid-free. Failures come with
re-checkable witnesses.

Sets of chord-graph nodes, the coloring's red class and the forced sets,
are node-index masks over ``ChordGraph.nodes``; the blue class is the rest
of ``ChordGraph.non_isolated_mask``. The paper's rigid region sets are
vertex masks; no decision reads them, since the exact rigid-free test needs
no screen in front of it.
A refutation spells out its own NO reason, the text its certificate carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .chords import ChordGraph, RigidPair, audit_assumption1, compute_ab_sets
from .errors import ScopeError
from .graph import BabPartition, Graph, bits, lowest, mask_of


def _spell(nodes: tuple[tuple[int, int], ...]) -> str:
    return " ".join(f"({x},{y})" for x, y in nodes)


@dataclass(frozen=True)
class ColoringRefutation:
    """Why no admissible coloring exists.

    Either a shortest odd cycle (tuple of nodes), or the two nodes that
    cannot both get their forced color, with ``detail`` saying why: two
    forced-red (or two forced-blue) nodes the proper coloring puts in
    different classes, or a forced-red and a forced-blue node it puts in
    the same class. ``reason`` is the NO certificate's reason.
    """

    cycle: tuple[tuple[int, int], ...] = ()
    conflict: tuple[tuple[int, int], ...] = ()
    detail: str = ""

    @property
    def reason(self) -> str:
        if self.cycle:
            return f"coloring: odd chord-graph cycle {_spell(self.cycle)}"
        return f"coloring: {self.detail} ({_spell(self.conflict)})"


def _bfs_coloring(cg: ChordGraph) -> tuple[int, bool]:
    """Color the non-isolated nodes by depth parity in ``cg.root_bfs``;
    returns the mask of the even-depth nodes and whether some edge joins two
    nodes of one class. Both are read off the BFS: the even layers, and
    whether it recorded a node with a neighbor in its own layer.

    A non-isolated node the BFS leaves unreached raises ScopeError, so the
    scope check takes precedence over any refutation.
    """
    live = cg.non_isolated_mask
    if not live:
        return 0, False
    order, _, _, layers, inner = cg.root_bfs
    if len(order) < live.bit_count():
        raise ScopeError("chord graph has several non-isolated components")
    return sum(layers[::2]), bool(inner)  # the layers are disjoint


def _shortest_odd_cycle(cg: ChordGraph) -> tuple[int, ...]:
    """Shortest odd cycle, from a BFS rooted at every non-isolated node; the
    least root reads ``cg.root_bfs``.

    An edge u < v inside a BFS layer closes the cycle from u up the parent
    chain to the nearest common ancestor and down to v. Each BFS records its
    layers and, in queue order, the nodes with a neighbor in their own
    layer, so only those nodes are read. Roots go ascending, edges in queue
    order of u then ascending v; the first strictly shortest cycle is kept,
    and a triangle ends the search at once.
    """
    best: tuple[int, ...] | None = None
    live = cg.non_isolated_mask
    first = lowest(live)
    for root in bits(live):
        _, depth, parent, layers, inner = cg.root_bfs if root == first else cg.bfs(root)
        for u in inner:
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


def color_constrained(cg: ChordGraph, forced: tuple[int, int]) -> int | ColoringRefutation:
    """2-color the chord graph with the forced-red nodes red and the
    forced-blue nodes blue; returns the red node mask.

    Requires the non-isolated part to be connected (audit upstream); a
    disconnected chord graph raises ScopeError. The coloring is canonical:
    BFS from the lexicographically least node, then a global swap so the
    constraint holds (root red when no constraint applies). A conflict
    names the least node of each class or forced set involved.
    """
    even, conflict = _bfs_coloring(cg)
    if conflict:
        cyc = _shortest_odd_cycle(cg)
        return ColoringRefutation(cycle=tuple(cg.nodes[i] for i in cyc))

    odd = cg.non_isolated_mask & ~even
    sa, sb = forced
    for group, name in ((sa, "forced-red"), (sb, "forced-blue")):
        if group & even and group & odd:
            return ColoringRefutation(
                conflict=(cg.nodes[lowest(group & even)], cg.nodes[lowest(group & odd)]),
                detail=f"{name} nodes fall in both color classes",
            )
    # each forced set now lies inside one class
    if (sa & even and sb & even) or (sa & odd and sb & odd):
        return ColoringRefutation(
            conflict=(cg.nodes[lowest(sa)], cg.nodes[lowest(sb)]),
            detail="a forced-red and a forced-blue node share a color class",
        )
    return odd if sa & odd or sb & even else even


def rigid_region_sets(cg: ChordGraph) -> tuple[int, int]:
    """R(X_a), R(X_b) as vertex masks: y's appearing in a non-isolated node
    whose x-end lies in X_a (resp. X_b); shared x-ends contribute to both.
    Read off each node's y-end. The paper screens the rigid-free test with
    them; ``check_rigid_free`` does without, and its docstring says why, so
    only the tests and traced runs call this."""
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

    @property
    def reason(self) -> str:
        parts = [
            f"side {side}: rigid pair ({rp.x1},{rp.y1}),({rp.x2},{rp.y2}) sits inside N_Y({v})"
            for side, viol in (("a", self.a_violations), ("b", self.b_violations))
            for v, rp in viol
        ]
        return "rigid-free: " + "; ".join(parts)


def check_rigid_free(g: Graph, p: BabPartition, cg: ChordGraph) -> RigidFreeReport:
    """Find the trapped private vertices of each side.

    For each private vertex v, ``near`` is the non-isolated chord nodes
    with y in N_Y(v) and x-end not private to v's side, cut from the y-cut
    ``cg.y_cut[v]`` that ``build_chord_graph`` kept, and v is trapped when
    a chord edge inside ``near`` has a shared x-end; the witness is the
    first such edge (i ascending, then the lowest j > i). Isolated nodes
    have no edges, so leaving them out of ``near`` changes no witness.

    The test comes first and is exact without the scan: every qualifying
    edge has an end with a shared x-end, and conversely a node of
    ``near & shared`` with a neighbor in ``near`` is the shared end of a
    qualifying edge. So v is trapped exactly when some node of
    ``near & shared`` has a neighbor in ``near``, and only then does the
    ordered scan run, to pick the witness.

    The paper's region sets R(X_a), R(X_b) (``rigid_region_sets``) need
    not screen the vertices first. Let v be a private a-vertex and take a
    rigid pair that traps it. Its two chord nodes are live, their x-ends
    lie in X_b (shared or private b), and their y-ends are distinct and lie
    in N_Y(v). So both y-ends lie in R(X_b) & N_Y(v): a vertex meeting
    R(X_b) in at most one y has no trapping pair, and the exact test
    already calls it clean. Side b is symmetric.
    """
    live = cg.non_isolated_mask
    shared = live & ~(cg.a_vertex_mask | cg.b_vertex_mask)

    def trapped(private: int, own_nodes: int):
        out = []
        for v in bits(private):
            near = cg.y_cut[v] & live & ~own_nodes
            if not any(cg.adj[s] & near for s in bits(near & shared)):
                continue
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
        trapped(p.a_only, cg.a_vertex_mask),
        trapped(p.b_only, cg.b_vertex_mask),
    )


class NecessaryStatus(Enum):
    PASS = "pass"
    FAIL = "fail"
    OUT_OF_SCOPE = "out-of-scope"


@dataclass(frozen=True)
class NecessaryVerdict:
    """``forced`` holds the (forced-red, forced-blue) node masks whenever
    the audit passed, so construction need not recompute them; ``coloring``
    is the red node mask once a coloring exists. On FAIL, ``reason`` is the
    NO certificate's reason."""

    status: NecessaryStatus
    forced: tuple[int, int] | None = None
    coloring: int | None = None
    rigid_free: RigidFreeReport | None = None
    reason: str = ""


def check_necessary(g: Graph, p: BabPartition, cg: ChordGraph) -> NecessaryVerdict:
    """Evaluate both necessary conditions; out-of-scope when the audit fails."""
    failures = audit_assumption1(g, p, cg)
    if failures:
        return NecessaryVerdict(status=NecessaryStatus.OUT_OF_SCOPE, reason="; ".join(failures))
    ab = compute_ab_sets(cg)
    colored = color_constrained(cg, ab)
    if isinstance(colored, ColoringRefutation):
        return NecessaryVerdict(status=NecessaryStatus.FAIL, forced=ab, reason=colored.reason)
    rfr = check_rigid_free(g, p, cg)
    if not rfr.holds:
        return NecessaryVerdict(
            status=NecessaryStatus.FAIL, forced=ab, coloring=colored, rigid_free=rfr, reason=rfr.reason
        )
    return NecessaryVerdict(status=NecessaryStatus.PASS, forced=ab, coloring=colored, rigid_free=rfr)
