"""Constrained coloring and the rigid-free emptiness test."""

import itertools
from collections import Counter

import pytest

from squaregeo import (
    NecessaryStatus,
    build_chord_graph,
    build_graph,
    check_necessary,
    check_rigid_free,
    color_constrained,
    compute_ab_sets,
    validate_bab,
)
from squaregeo.chords import AbVertexSets, ChordGraph, RigidPair
from squaregeo.errors import ScopeError
from squaregeo.graph import bits
from squaregeo.necessary import (
    ColoringRefutation,
    TwoColoring,
    _bfs_coloring,
    _shortest_odd_cycle,
    rigid_region_sets,
)
from squaregeo.instances import generate_bab

from conftest import enumerate_bab_instances
from oracles import (
    color_constrained_by_list,
    members,
    nodes_of,
    rigid_free_by_pair_scan,
    rigid_pairs_by_definition,
    shortest_odd_cycle_by_all_roots,
    square_geometric_by_order_search,
)

# Both private sides of this 7-vertex instance trap a rigid pair, so the
# rigid-free disjunction fails; the order-search oracle confirms there is no
# valid order pair at all.
RIGID_FAIL_EDGES = [
    (0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4),
    (2, 3), (2, 6), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
]

# A near miss for the same shape: vertex 0 meets the opposite region set in
# two y's, yet no single rigid pair lies inside N_Y(0), and the instance is
# square geometric. Distinguishes the emptiness test from counting.
REGION_OVERSHOOT_EDGES = [
    (0, 1), (0, 2), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4),
    (2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6),
]

FORCED_CONFLICT_EDGES = [
    (0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (1, 4),
    (2, 3), (2, 5), (3, 4), (4, 5),
]


def _instance(n, edges, xa, xb, y):
    g = build_graph(n, edges)
    p = validate_bab(g, xa, xb, y)
    return g, p, build_chord_graph(g, p)


def test_g8_coloring_frozen(g8):
    g, p = g8
    cg = build_chord_graph(g, p)
    col = color_constrained(cg, compute_ab_sets(cg))
    assert isinstance(col, TwoColoring)
    assert sorted(nodes_of(cg, col.red)) == [(0, 5), (0, 6), (0, 7), (1, 6), (1, 7)]
    assert sorted(nodes_of(cg, col.blue)) == [(2, 4), (3, 4), (3, 5)]
    assert (col.red >> cg.node_index((0, 5))) & 1
    assert (col.blue >> cg.node_index((3, 4))) & 1
    assert (0, 3) not in nodes_of(cg, col.red | col.blue)  # not an X-Y node


def test_c4_coloring_canonical(c4):
    g, p = c4
    cg = build_chord_graph(g, p)
    col = color_constrained(cg, compute_ab_sets(cg))
    assert nodes_of(cg, col.red) == frozenset({(0, 3)})
    assert nodes_of(cg, col.blue) == frozenset({(1, 2)})


def test_forced_nodes_land_in_their_classes(g8):
    g, p = g8
    cg = build_chord_graph(g, p)
    ab = compute_ab_sets(cg)
    col = color_constrained(cg, ab)
    assert ab.script_a_mask & ~col.red == 0
    assert ab.script_b_mask & ~col.blue == 0


def test_triangle6_odd_cycle(triangle6):
    g, p = triangle6
    cg = build_chord_graph(g, p)
    ref = color_constrained(cg, compute_ab_sets(cg))
    assert isinstance(ref, ColoringRefutation)
    assert ref.kind == "odd-cycle"
    assert ref.cycle == ((1, 3), (0, 5), (2, 4))
    assert ref.detail == "odd cycle of length 3"
    nec = check_necessary(g, p, cg)
    assert nec.status is NecessaryStatus.FAIL
    assert nec.reason == "odd-cycle"
    assert nec.refutation == ref


def test_odd_cycle_is_really_a_cycle(triangle6):
    g, p = triangle6
    cg = build_chord_graph(g, p)
    ref = color_constrained(cg, compute_ab_sets(cg))
    k = len(ref.cycle)
    assert k % 2 == 1
    for i, node in enumerate(ref.cycle):
        nxt = ref.cycle[(i + 1) % k]
        assert (cg.adj[cg.node_index(node)] >> cg.node_index(nxt)) & 1


def test_odd_cycle_matches_the_reference_search():
    """The witness is the cycle the original all-roots search returns, on
    every random instance whose chord graph is connected but not bipartite."""
    lengths = []
    for shape in ((2, 3, 2, 6), (3, 3, 3, 6), (3, 4, 3, 8)):
        for seed in range(60):
            g, p = generate_bab(shape, 0.5, seed)
            cg = build_chord_graph(g, p)
            try:
                conflict = _bfs_coloring(cg)[1]
            except ScopeError:
                continue
            if conflict:
                cycle = _shortest_odd_cycle(cg)
                assert cycle == shortest_odd_cycle_by_all_roots(cg), (shape, seed)
                lengths.append(len(cycle))
    assert len(lengths) == 157
    assert lengths.count(5) == 3


def test_forced_conflict_refutation():
    g, p, cg = _instance(6, FORCED_CONFLICT_EDGES, [0, 1, 2], [1, 2, 3], [4, 5])
    ref = color_constrained(cg, compute_ab_sets(cg))
    assert isinstance(ref, ColoringRefutation)
    assert ref.kind == "forced-conflict"
    assert ref.conflict == ((0, 5), (3, 5))
    assert ref.detail == "a forced-red and a forced-blue node share a color class"
    nec = check_necessary(g, p, cg)
    assert nec.status is NecessaryStatus.FAIL
    assert nec.reason == "forced-conflict"


def test_disconnected_chord_graph_is_out_of_scope(disconnected7):
    g, p = disconnected7
    cg = build_chord_graph(g, p)
    with pytest.raises(ScopeError):
        color_constrained(cg, compute_ab_sets(cg))
    nec = check_necessary(g, p, cg)
    assert nec.status is NecessaryStatus.OUT_OF_SCOPE
    assert "components" in nec.reason


def test_coloring_matches_the_list_reference():
    """The class masks give the same coloring or refutation as the per-node
    color list they replaced, on seeded instances and their mirrors. The
    corpus reaches every refutation, both witness orders of a split forced
    set, and each way of choosing red: the class of script-A, the class
    opposite script-B, and the root's class when neither is set."""
    seen = Counter()
    for a, s, b, y in itertools.product(range(3), range(1, 4), range(3), range(2, 6)):
        for seed in range(10):
            g, p = generate_bab((a, s, b, y), (0.3, 0.5, 0.7)[seed % 3], seed)
            for q in (p, p.mirrored()):
                cg = build_chord_graph(g, q)
                ab = compute_ab_sets(cg)
                try:
                    want = color_constrained_by_list(cg, ab)
                except ScopeError:
                    with pytest.raises(ScopeError):
                        color_constrained(cg, ab)
                    continue
                got = color_constrained(cg, ab)
                assert got == want, ((a, s, b, y), seed, q is p)
                if isinstance(got, ColoringRefutation):
                    seen[got.detail if got.kind == "forced-conflict" else got.kind] += 1
                    if got.detail.endswith("both color classes"):
                        lo, hi = map(cg.node_index, got.conflict)
                        seen["witness ascending" if lo < hi else "witness descending"] += 1
                elif ab.script_a_mask:
                    seen["red holds script-A"] += 1
                elif ab.script_b_mask:
                    seen["red opposite script-B"] += 1
                else:
                    seen["red at the root"] += 1
    assert set(seen) == {
        "odd-cycle",
        "forced-red nodes fall in both color classes",
        "forced-blue nodes fall in both color classes",
        "a forced-red and a forced-blue node share a color class",
        "witness ascending",
        "witness descending",
        "red holds script-A",
        "red opposite script-B",
        "red at the root",
    }, seen


def test_scope_error_takes_precedence_over_odd_cycle():
    """A triangle beside a separate edge: the coloring stops at the second
    component whichever side the odd cycle lies on."""
    nodes = tuple((0, y) for y in range(5))
    no_forced = AbVertexSets(0, 0)
    for adj in ((0b00110, 0b00101, 0b00011, 0b10000, 0b01000),
                (0b00010, 0b00001, 0b11000, 0b10100, 0b01100)):
        with pytest.raises(ScopeError):
            color_constrained(ChordGraph(nodes, adj, 0, 0), no_forced)


def test_region_sets_frozen(g8, c4):
    g, p = g8
    cg = build_chord_graph(g, p)
    assert tuple(map(members, rigid_region_sets(cg))) == (frozenset({4, 5, 6, 7}), frozenset({4, 5, 6, 7}))
    g, p = c4
    cg = build_chord_graph(g, p)
    assert tuple(map(members, rigid_region_sets(cg))) == (frozenset({2, 3}), frozenset({2, 3}))


def test_region_sets_skip_isolated_nodes(g8):
    """(0, 3) is an isolated chord node on a private pair; neither end of it
    may contribute, which is invisible here but pinned by construction: the
    region sets collect y's only from nodes with a chord-graph neighbor."""
    g, p = g8
    cg = build_chord_graph(g, p)
    ra, rb = map(members, rigid_region_sets(cg))
    live = {cg.nodes[i] for i in range(len(cg.nodes)) if cg.adj[i]}
    assert ra == frozenset(y for x, y in live if x in members(p.x_a))
    assert rb == frozenset(y for x, y in live if x in members(p.x_b))


def test_g8_rigid_free(g8):
    g, p = g8
    cg = build_chord_graph(g, p)
    rfr = check_rigid_free(g, p, cg)
    assert (rfr.side_a_ok, rfr.side_b_ok) == (True, True)
    # Quantifying over the whole cliques instead flips both sides: shared
    # vertex 2 traps {1.5, 3.6} and shared vertex 1 traps {0.4, 2.5}.
    assert _sides_by_scan(g, p) == (True, True, False, False)
    assert rfr.a_violations == ()
    assert rfr.b_violations == ()
    assert rfr.holds


def test_rigid_free_failure_carries_witnesses():
    g, p, cg = _instance(7, RIGID_FAIL_EDGES, [0, 1, 2], [1, 2, 3], [4, 5, 6])
    rfr = check_rigid_free(g, p, cg)
    assert not rfr.side_a_ok and not rfr.side_b_ok
    assert not rfr.holds
    assert rfr.a_violations == ((0, RigidPair(x1=1, y1=4, x2=3, y2=5)),)
    assert rfr.b_violations == ((3, RigidPair(x1=0, y1=5, x2=2, y2=6)),)
    nec = check_necessary(g, p, cg)
    assert nec.status is NecessaryStatus.FAIL
    assert nec.reason == "rigid-free"
    assert not square_geometric_by_order_search(g)


def test_region_overshoot_alone_is_not_a_violation():
    g, p, cg = _instance(7, REGION_OVERSHOOT_EDGES, [0, 1, 2], [1, 2, 3], [4, 5, 6])
    ra, rb = map(members, rigid_region_sets(cg))
    ny0 = {y for y in bits(p.y) if g.adjacent(0, y)}
    assert len(ny0 & rb) == 2
    rfr = check_rigid_free(g, p, cg)
    assert rfr.side_a_ok
    assert rfr.holds
    nec = check_necessary(g, p, cg)
    assert nec.status is NecessaryStatus.PASS
    assert square_geometric_by_order_search(g)


def _sides_by_scan(g, p):
    """Quantifier-by-quantifier restatement of the rigid-free conditions."""
    pairs = rigid_pairs_by_definition(g, p)
    shared = members(p.shared)

    def trapped(v, other_private):
        nyv = {y for y in bits(p.y) if g.adjacent(v, y)}
        for (x1, y1), (x2, y2) in pairs:
            ends = {x1, x2}
            permitted = ends <= shared or (
                len(ends & shared) == 1 and len(ends & other_private) == 1
            )
            if permitted and y1 in nyv and y2 in nyv:
                return True
        return False

    a_priv, b_priv = members(p.a_only), members(p.b_only)
    return (
        not any(trapped(v, b_priv) for v in a_priv),
        not any(trapped(v, a_priv) for v in b_priv),
        not any(trapped(v, b_priv) for v in bits(p.x_a)),
        not any(trapped(v, a_priv) for v in bits(p.x_b)),
    )


def test_rigid_free_matches_direct_scan_small():
    """The sides follow the private-only scan, also where quantifying over
    the whole cliques would give another answer."""
    wide_differs = 0
    for n in range(2, 6):
        for g, p in enumerate_bab_instances(n):
            cg = build_chord_graph(g, p)
            rfr = check_rigid_free(g, p, cg)
            scan = _sides_by_scan(g, p)
            assert (rfr.side_a_ok, rfr.side_b_ok) == scan[:2], (g.edges(), list(bits(p.x_a)), list(bits(p.x_b)))
            wide_differs += scan[:2] != scan[2:]
    assert wide_differs > 0


def test_rigid_free_matches_direct_scan_generated():
    from squaregeo import generate_bab
    from squaregeo.errors import GenerationError

    shapes = [(1, 2, 1, 3), (2, 2, 1, 2), (1, 2, 2, 2), (2, 2, 2, 2), (1, 3, 1, 3)]
    wide_differs = 0
    for seed in range(120):
        try:
            g, p = generate_bab(shapes[seed % len(shapes)], 0.25 + (seed % 11) / 20, seed)
        except GenerationError:
            continue
        cg = build_chord_graph(g, p)
        rfr = check_rigid_free(g, p, cg)
        scan = _sides_by_scan(g, p)
        assert (rfr.side_a_ok, rfr.side_b_ok) == scan[:2], (g.edges(), list(bits(p.x_a)), list(bits(p.x_b)))
        wide_differs += scan[:2] != scan[2:]
    assert wide_differs > 0


def test_rigid_free_witnesses_match_the_pair_scan():
    """Each trapped vertex and its rigid pair equal the original scan over
    one RigidPair per chord edge, on every n <= 5 isomorphism class and on
    seeded random instances; both sides have violations."""
    instances = [gp for n in range(2, 6) for gp in enumerate_bab_instances(n)]
    for shape in ((2, 3, 2, 6), (3, 3, 3, 6), (3, 4, 3, 8)):
        for seed in range(30):
            instances.append(generate_bab(shape, 0.3 + (seed % 5) / 10, seed))
    seen_a = seen_b = 0
    for g, p in instances:
        cg = build_chord_graph(g, p)
        rfr = check_rigid_free(g, p, cg)
        ref = rigid_free_by_pair_scan(g, p, cg)
        assert (rfr.a_violations, rfr.b_violations) == ref, (g.edges(), list(bits(p.x_a)), list(bits(p.x_b)))
        seen_a += len(ref[0])
        seen_b += len(ref[1])
    assert seen_a > 0 and seen_b > 0


def test_pass_reports_both_checks(g8):
    g, p = g8
    nec = check_necessary(g, p)
    assert nec.status is NecessaryStatus.PASS
    assert nec.reason == ""
    assert isinstance(nec.coloring, TwoColoring)
    assert nec.rigid_free is not None and nec.rigid_free.holds
