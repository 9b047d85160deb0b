"""Rigid pairs, the chord graph, and the structural audit gating the pipeline.

A rigid pair is an induced 4-cycle x1-y1-y2-x2 with both x's in X_a union X_b
and both y's in Y; its two chords x1y2 and x2y1 are the non-edges forced into
one interval completion each. The chord graph has one node per X-Y non-edge
and joins two nodes exactly when they are the chords of a common rigid pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .graph import BabPartition, Graph, bits, lowest, mask_of, ny_mask, union_of, upper_pairs
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
    private X_a (resp. X_b) vertex. ``x_start`` is the x-end table: the
    nodes with x-end v are the indices ``x_start[v]``..``x_start[v+1]``, an
    empty range for v outside X. ``y_cut`` is the y-cut table: ``y_cut[x]``
    is the mask of the nodes whose y-end lies in N_Y(x), for x in X, and 0
    for a vertex off X. ``build_chord_graph`` fills both tables; a graph
    built by hand may leave them empty, and can only pass them by keyword.
    ``root_bfs`` is the one BFS from the least non-isolated node, shared by
    the audit's component count, the coloring and the odd-cycle search; each
    reads the layer masks and in-layer nodes the BFS records as it runs, so
    none of them rebuilds them node by node.
    """

    nodes: tuple[tuple[int, int], ...]
    adj: tuple[int, ...]
    a_vertex_mask: int
    b_vertex_mask: int
    x_start: tuple[int, ...] = field(default=(), kw_only=True)
    y_cut: tuple[int, ...] = field(default=(), kw_only=True)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as index pairs (i, j), i < j, lexicographically."""
        return upper_pairs(self.adj)

    @cached_property
    def non_isolated_mask(self) -> int:
        """Nodes with at least one neighbor; computed once per chord graph."""
        m = 0
        for i, a in enumerate(self.adj):
            if a:
                m |= 1 << i
        return m

    @cached_property
    def root_bfs(self) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
        """``bfs`` from the least non-isolated node, run once per chord graph;
        its readers must not mutate it. Only read when some node has a
        neighbor."""
        return self.bfs(lowest(self.non_isolated_mask))

    def witness(self, i: int, j: int) -> RigidPair:
        """The unique rigid pair whose chords are nodes i and j."""
        if not (self.adj[i] >> j) & 1:
            raise InputError(f"nodes {self.nodes[i]} and {self.nodes[j]} are not adjacent")
        (x, y), (xp, yp) = self.nodes[i], self.nodes[j]
        return make_rigid_pair((x, yp), (xp, y))

    def bfs(self, root: int) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
        """Breadth-first search from ``root``, the one traversal of this graph.

        Returns ``(order, depth, parent, layers, inner)``. ``order`` is the
        reached nodes in FIFO queue order, each node enqueuing its unseen
        neighbors ``adj[u] & ~seen`` in ascending order; ``depth`` and
        ``parent`` are per node, -1 where undefined. ``layers[d]`` is the
        mask of the nodes at depth d, and ``inner`` lists, in queue order,
        the nodes with a neighbor in their own layer: the ends of the edges
        that join two nodes of one depth parity class.

        Both are built in the loop, one mask operation per dequeued node u
        at depth d: its unseen neighbors are OR-ed into layer d+1, and
        ``adj[u] & layers[d]`` is tested. That test is exact when made at
        dequeue: FIFO dequeues depth d only after every node of depth d-1,
        and those discover all of depth d, so layer d is complete by then.
        Made when u is discovered instead, it would miss the neighbors of u
        in its layer that are discovered after it.
        """
        adj = self.adj
        depth = [-1] * len(adj)
        parent = [-1] * len(adj)
        depth[root] = 0
        order = [root]
        layers = [1 << root]
        inner = []
        seen = 1 << root
        for u in order:
            d = depth[u]
            a = adj[u]
            if a & layers[d]:
                inner.append(u)
            new = a & ~seen
            if not new:
                continue
            seen |= new
            d += 1
            if d < len(layers):
                layers[d] |= new
            else:
                layers.append(new)
            for v in bits(new):
                depth[v] = d
                parent[v] = u
                order.append(v)
        return order, depth, parent, layers, inner


def y_end_masks(nodes: Sequence[tuple[int, int]], n: int) -> tuple[int, ...]:
    """``out[y]`` is the mask of the indices of the nodes (x, y) with that
    y-end, for y in 0..n-1."""
    out = [0] * n
    for i, (_, y) in enumerate(nodes):
        out[y] |= 1 << i
    return tuple(out)


def build_chord_graph(g: Graph, p: BabPartition) -> ChordGraph:
    """Construct the chord graph of (g, p).

    Nodes are all X-Y non-edges. From node (x, y), neighbors are the nodes
    (x', y') with x' adjacent to both x and y, and y' a Y-neighbor of x (the
    node property already gives x' !~ y'). One pass over ascending ids lays
    the nodes out and keeps the x-end table ``start``: the nodes with x-end
    v are the range ``start[v]``..``start[v+1]``, empty for an id outside
    X; it is kept as ``x_start``. The y-end table ``by_y`` has one node
    mask per y-end; it is read only here, to build the y-cuts.

    Each mask is built once per vertex, none per node: ``near_x[v]`` is the
    mask of the nodes whose x-end lies in N(v) & X, and ``near[x]`` is
    ``near_x[x]`` cut to ``y_cut[x]``, the union of ``by_y[y']`` over y' in
    N_Y(x), which is kept as the y-cut table. The neighbor mask of (x, y)
    is ``near[x] & near_x[y]``. This is exact because the per-x ranges are
    disjoint: the nodes with x-end in N(x) & N(y) & X are those in both the
    N(x) & X and the N(y) & X masks.

    A node mask by x-ends is built one run of consecutive ids at a time,
    the run lo..hi being the range ``start[lo]``..``start[hi+1]``. For
    ``near_x[v]``, all of Y and v itself are added to N(v). Y ids have
    empty ranges, and the nodes of v have y-ends outside N_Y(v), which
    ``near[v]`` cuts away (a vertex of Y has no nodes). So neither changes
    a neighbor mask; they only join runs, so fewer ranges are cut. That
    pays on interleaved ids: on planted n=70-110 instances with contiguous
    X and Y ids, ``at_x(a & p.x_all)`` builds in the same time, but with
    the ids shuffled it takes 2.40-2.85 ms per build against 1.66-2.32 ms
    (medians of paired passes, Python 3.11.7, 2 CPUs).
    """
    nodes: list[tuple[int, int]] = []
    start = []
    for v in range(g.n):
        start.append(len(nodes))
        if p.x_all >> v & 1:
            nodes.extend((v, y) for y in bits(p.y & ~g.adj[v]))
    start.append(len(nodes))

    def at_x(ids: int) -> int:
        """The mask of the nodes whose x-end is in ``ids``."""
        out = 0
        while ids:
            low = ids & -ids
            past = ids + low  # the run from ``low`` cleared, the bit past its end set
            out |= (1 << start[(past & -past).bit_length() - 1]) - (1 << start[low.bit_length() - 1])
            ids = past & (past - 1)
        return out

    by_y = y_end_masks(nodes, g.n)
    near_x = [at_x(a | p.y | 1 << v) for v, a in enumerate(g.adj)]
    y_cut = [union_of(by_y, a & p.y) if p.x_all >> v & 1 else 0 for v, a in enumerate(g.adj)]
    near = {x: near_x[x] & y_cut[x] for x in bits(p.x_all)}
    # From a list, not a generator: CPython resizes a tuple built from a
    # generator, and once freed it stays on the free list of its length (up
    # to 2,000 per length below 20), so a long run's heap would grow by one
    # tuple per instance.
    adj = tuple([near[x] & near_x[y] for x, y in nodes])
    return ChordGraph(tuple(nodes), adj, at_x(p.a_only), at_x(p.b_only),
                      x_start=tuple(start), y_cut=tuple(y_cut))


def compute_ab_sets(cg: ChordGraph) -> tuple[int, int]:
    """The chord-graph nodes whose color is forced, as the node-index masks
    (forced red, forced blue): the a-vertices with a neighbor that is not
    itself an a-vertex, and the b-vertices with a neighbor that is not
    itself a b-vertex. Only non-isolated nodes can qualify, so only they
    are read."""

    def forced(side: int) -> int:
        other = ~side
        return mask_of(i for i in bits(side & cg.non_isolated_mask) if cg.adj[i] & other)

    return forced(cg.a_vertex_mask), forced(cg.b_vertex_mask)


def audit_assumption1(g: Graph, p: BabPartition, cg: ChordGraph) -> tuple[str, ...]:
    """Audit of the structural preconditions the decision rules need: the
    failed clauses, empty when the instance is compliant. Non-compliance
    routes the pipeline to UNDECIDED (or to the brute-force oracle when
    allowed), never to a hard failure."""
    failures = []

    components = 0
    left = cg.non_isolated_mask
    while left:
        layers = (cg.bfs(lowest(left)) if components else cg.root_bfs)[3]
        left &= ~sum(layers)  # the layers are disjoint
        components += 1
    if components > 1:
        failures.append(f"chord graph splits into {components} non-isolated components")

    y_size = p.y.bit_count()
    for v in bits(p.a_only | p.b_only):
        d = ny_mask(g, p, v).bit_count()
        if not 0 < d < y_size:
            failures.append(f"private vertex {v} has {d} Y-neighbors out of {y_size}")

    common = mask_of(y for y in bits(p.y) if g.adj[y] & p.x_all == p.x_all)  # Y seen by all of X
    for b in bits(p.b_only):  # b's own term always holds, so all of X stands for X minus b
        if not g.adj[b] & p.y & ~common:
            failures.append(f"N_Y({b}) nests inside every other X vertex's Y-neighborhood")

    free = ~(cg.a_vertex_mask | cg.b_vertex_mask)
    if not any(cg.adj[i] & free for i in bits(cg.non_isolated_mask & free)):
        failures.append("no chord-graph edge avoids the forced-color nodes")

    return tuple(failures)
