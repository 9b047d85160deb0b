"""Rigid pairs, the chord graph, and the structural audit gating the pipeline.

A rigid pair is an induced 4-cycle x1-y1-y2-x2 with both x's in X_a union X_b
and both y's in Y; its two chords x1y2 and x2y1 are the non-edges forced into
one interval completion each. The chord graph has one node per X-Y non-edge
and joins two nodes exactly when they are the chords of a common rigid pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .graph import BabPartition, Graph, bits, mask_of, ny_mask, union_of
from .errors import InputError


@dataclass(frozen=True, order=True)
class RigidPair:
    """An induced 4-cycle x1-y1-y2-x2; (x1, y1) is the lexicographically
    least of the two edge endpoints pairs, fixing the orientation."""

    x1: int
    y1: int
    x2: int
    y2: int

    @property
    def chords(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two non-edges (x1,y2) and (x2,y1) completed by this pair."""
        return ((self.x1, self.y2), (self.x2, self.y1))


def make_rigid_pair(ex: tuple[int, int], ey: tuple[int, int]) -> RigidPair:
    """Build a RigidPair from its two x-y edges, normalizing the orientation."""
    first, second = sorted((ex, ey))
    return RigidPair(first[0], first[1], second[0], second[1])


def enumerate_rigid_pairs(g: Graph, p: BabPartition) -> tuple[RigidPair, ...]:
    """All rigid pairs, sorted by their normalized coordinates: one per
    chord-graph edge, read off as the edge's witness."""
    cg = build_chord_graph(g, p)
    return tuple(sorted(cg.witness(i, j) for i, j in cg.edges()))


@dataclass(frozen=True)
class ChordGraph:
    """The graph on X-Y non-edges induced by rigid pairs.

    ``nodes`` is lexicographically sorted; ``adj[i]`` is a bitmask over node
    indices. ``a_vertex_mask``/``b_vertex_mask`` mark nodes whose x-end is a
    private X_a (resp. X_b) vertex.
    """

    nodes: tuple[tuple[int, int], ...]
    adj: tuple[int, ...]
    a_vertex_mask: int
    b_vertex_mask: int

    def node_index(self, pair: tuple[int, int]) -> int:
        import bisect

        i = bisect.bisect_left(self.nodes, pair)
        if i == len(self.nodes) or self.nodes[i] != pair:
            raise InputError(f"{pair} is not an X-Y non-edge")
        return i

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edges as index pairs (i, j), i < j, lexicographically."""
        out = []
        for i, a in enumerate(self.adj):
            for j in bits(a >> (i + 1) << (i + 1)):
                out.append((i, j))
        return out

    @cached_property
    def non_isolated_mask(self) -> int:
        """Nodes with at least one neighbor; computed once per chord graph."""
        m = 0
        for i, a in enumerate(self.adj):
            if a:
                m |= 1 << i
        return m

    def witness(self, i: int, j: int) -> RigidPair:
        """The unique rigid pair whose chords are nodes i and j."""
        if not (self.adj[i] >> j) & 1:
            raise InputError(f"nodes {self.nodes[i]} and {self.nodes[j]} are not adjacent")
        (x, y), (xp, yp) = self.nodes[i], self.nodes[j]
        return make_rigid_pair((x, yp), (xp, y))

    def bfs(self, root: int) -> tuple[list[int], list[int], list[int]]:
        """Breadth-first search from ``root``, the one traversal of this graph.

        Returns the reached nodes in FIFO queue order, each node enqueuing its
        unseen neighbors ``adj[u] & ~seen`` in ascending order, and per node
        its depth and parent; both are -1 where undefined.
        """
        depth = [-1] * len(self.nodes)
        parent = [-1] * len(self.nodes)
        depth[root] = 0
        order = [root]
        seen = 1 << root
        for u in order:
            new = self.adj[u] & ~seen
            seen |= new
            for v in bits(new):
                depth[v] = depth[u] + 1
                parent[v] = u
                order.append(v)
        return order, depth, parent

    def components(self) -> list[tuple[int, ...]]:
        """Connected components over non-isolated nodes, as sorted tuples."""
        seen = 0
        comps = []
        for s in bits(self.non_isolated_mask):
            if not (seen >> s) & 1:
                comp = sorted(self.bfs(s)[0])
                seen |= mask_of(comp)
                comps.append(tuple(comp))
        return comps


def y_end_masks(nodes: Sequence[tuple[int, int]], n: int) -> list[int]:
    """``out[y]`` is the mask of the indices of the nodes (x, y) with that
    y-end, for y in 0..n-1."""
    out = [0] * n
    for i, (_, y) in enumerate(nodes):
        out[y] |= 1 << i
    return out


def build_chord_graph(g: Graph, p: BabPartition) -> ChordGraph:
    """Construct the chord graph of (g, p).

    Nodes are all X-Y non-edges. From node (x, y), neighbors are the nodes
    (x', y') with x' adjacent to both x and y, and y' a Y-neighbor of x (the
    node property already gives x' !~ y'). One pass over sorted X lays the
    nodes out and keeps a node mask per x-end, ``by_x`` (a contiguous
    range); ``by_y`` has one per y-end. The neighbor mask of (x, y) is then
    the union of ``by_x[x']`` over x' in N(x) & N(y) & X, cut to
    ``near_y[x]``, the union of ``by_y[y']`` over y' in N_Y(x).
    """
    nodes: list[tuple[int, int]] = []
    by_x = [0] * g.n
    for x in bits(p.x_all):
        start = len(nodes)
        nodes.extend((x, y) for y in bits(p.y & ~g.adj[x]))
        by_x[x] = (1 << len(nodes)) - (1 << start)
    by_y = y_end_masks(nodes, g.n)
    near_y = {x: union_of(by_y, g.adj[x] & p.y) for x in bits(p.x_all)}
    adj = tuple(union_of(by_x, g.adj[x] & g.adj[y] & p.x_all) & near_y[x] for x, y in nodes)
    return ChordGraph(tuple(nodes), adj, union_of(by_x, p.a_only), union_of(by_x, p.b_only))


@dataclass(frozen=True)
class AbVertexSets:
    """Nodes of the chord graph whose color is forced, as node-index masks.

    ``script_a_mask``: non-isolated a-vertices with at least one neighbor
    that is not itself an a-vertex; ``script_b_mask`` symmetrically.
    """

    script_a_mask: int
    script_b_mask: int


def compute_ab_sets(cg: ChordGraph) -> AbVertexSets:
    def forced(side: int) -> int:
        return mask_of(i for i in bits(side) if cg.adj[i] & ~side)

    return AbVertexSets(forced(cg.a_vertex_mask), forced(cg.b_vertex_mask))


@dataclass(frozen=True)
class AssumptionReport:
    """Audit of the structural preconditions the decision rules need.

    ``failures`` names each failed precondition; non-compliance routes the
    pipeline to UNDECIDED (or to the brute-force oracle when allowed),
    never to a hard failure.
    """

    failures: tuple[str, ...]

    @property
    def compliant(self) -> bool:
        return not self.failures


def audit_assumption1(g: Graph, p: BabPartition, cg: ChordGraph) -> AssumptionReport:
    failures = []

    components = cg.components()
    if len(components) > 1:
        failures.append(f"chord graph splits into {len(components)} non-isolated components")

    y_size = p.y.bit_count()
    for v in bits(p.a_only | p.b_only):
        d = ny_mask(g, p, v).bit_count()
        if not 0 < d < y_size:
            failures.append(f"private vertex {v} has {d} Y-neighbors out of {y_size}")

    for b in bits(p.b_only):
        nyb = ny_mask(g, p, b)
        if all(nyb & ~ny_mask(g, p, u) == 0 for u in bits(p.x_all & ~(1 << b))):
            failures.append(f"N_Y({b}) nests inside every other X vertex's Y-neighborhood")

    ab_mask = cg.a_vertex_mask | cg.b_vertex_mask
    if not any(cg.adj[i] & ~ab_mask for i in range(len(cg.nodes)) if not (ab_mask >> i) & 1):
        failures.append("no chord-graph edge avoids the forced-color nodes")

    return AssumptionReport(failures=tuple(failures))
