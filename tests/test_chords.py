"""Rigid pairs, the derived chord graph, and the structural audit."""

import pytest

from squaregeo import (
    audit_assumption1,
    build_chord_graph,
    build_graph,
    compute_ab_sets,
    enumerate_rigid_pairs,
    validate_bab,
)
from squaregeo.chords import ChordGraph, RigidPair, make_rigid_pair, y_end_masks
from squaregeo.errors import InputError
from squaregeo.graph import bits, mask_of, union_of
from squaregeo.instances import generate_bab

from conftest import enumerate_bab_instances
from oracles import (
    chord_adjacent_by_definition,
    chord_nodes_by_definition,
    classify_nonedges,
    components_by_bfs,
    edge_pairs,
    layers_and_inner_by_order,
    nodes_of,
    rigid_pairs_by_definition,
)

G8_RIGID = [
    (0, 4, 2, 5), (0, 4, 2, 6), (0, 4, 2, 7),
    (1, 4, 2, 6), (1, 4, 2, 7),
    (1, 4, 3, 6), (1, 4, 3, 7),
    (1, 5, 3, 6), (1, 5, 3, 7),
]


def test_make_rigid_pair_normalizes_orientation():
    rp = make_rigid_pair((2, 5), (0, 4))
    assert rp == RigidPair(0, 4, 2, 5)
    assert rp.chords == ((0, 5), (2, 4))
    assert edge_pairs(rp) == ((0, 4), (2, 5))


def test_worked_example_has_nine_rigid_pairs(g8):
    g, p = g8
    got = [(rp.x1, rp.y1, rp.x2, rp.y2) for rp in enumerate_rigid_pairs(g, p)]
    assert got == G8_RIGID


def test_rigid_pairs_match_the_four_tuple_scan(g8, c4, triangle6, disconnected7):
    for g, p in (g8, c4, triangle6, disconnected7):
        got = {
            ((rp.x1, rp.y1), (rp.x2, rp.y2)) for rp in enumerate_rigid_pairs(g, p)
        }
        assert got == rigid_pairs_by_definition(g, p)


def test_chord_graph_nodes_are_the_sorted_xy_non_edges(g8, c4):
    for g, p in (g8, c4):
        cg = build_chord_graph(g, p)
        assert list(cg.nodes) == chord_nodes_by_definition(g, p)
    g, p = c4
    cg = build_chord_graph(g, p)
    assert cg.nodes == ((0, 3), (1, 2))
    assert cg.edges() == [(0, 1)]


def test_chord_graph_matches_definition_on_all_small_instances():
    """Exhaustive check on 4 vertices: adjacency agrees with the pointwise
    definition in one orientation or the other."""
    for g, p in enumerate_bab_instances(4):
        cg = build_chord_graph(g, p)
        assert list(cg.nodes) == chord_nodes_by_definition(g, p)
        k = len(cg.nodes)
        for i in range(k):
            for j in range(i + 1, k):
                want = chord_adjacent_by_definition(
                    g, cg.nodes[i], cg.nodes[j]
                ) or chord_adjacent_by_definition(g, cg.nodes[j], cg.nodes[i])
                assert bool((cg.adj[i] >> j) & 1) == want


def _real_size_instances():
    """Seeded instances with n from 8 to 40, three densities per shape. The
    shapes include one-sided ones (no private a, or no private b) and one
    with a single Y vertex, which admits no rigid pair and so no chord edge."""
    shapes = ((2, 3, 2, 1), (0, 4, 3, 5), (3, 4, 0, 6), (2, 2, 2, 8), (4, 5, 3, 10),
              (0, 8, 6, 12), (6, 6, 0, 14), (5, 8, 5, 14), (8, 10, 8, 14))
    for k, shape in enumerate(shapes):
        for seed in range(3):
            g, p = generate_bab(shape, (0.3, 0.5, 0.7)[seed], 100 * k + seed)
            yield shape, seed, g, p, build_chord_graph(g, p)


def test_chord_graph_matches_definition_at_real_sizes():
    """Every node's neighbor mask is the set of nodes linked to it by the
    pointwise definition, in one orientation or the other."""
    edges = []
    for shape, seed, g, p, cg in _real_size_instances():
        assert list(cg.nodes) == chord_nodes_by_definition(g, p)
        for i, u in enumerate(cg.nodes):
            want = mask_of(
                j for j, v in enumerate(cg.nodes)
                if chord_adjacent_by_definition(g, u, v) or chord_adjacent_by_definition(g, v, u)
            )
            assert cg.adj[i] == want, (shape, seed, u)
        edges.append(len(cg.edges()))
    assert edges[:3] == [0, 0, 0]
    assert min(edges[3:]) > 0 and sum(edges) > 10_000, edges


def test_y_end_table_holds_each_node_under_its_y():
    """``y_end_masks`` files each node under its y, and the y-cut table
    ``y_cut[x]`` is the union of those masks over N_Y(x) for every X
    vertex x, and 0 off X."""
    for _, _, g, p, cg in _real_size_instances():
        by_y = y_end_masks(cg.nodes, g.n)
        assert by_y == tuple(
            mask_of(i for i, (_, y) in enumerate(cg.nodes) if y == v) for v in range(g.n)
        )
        assert cg.y_cut == tuple(union_of(by_y, g.adj[v] & p.y) if p.x_all >> v & 1 else 0 for v in range(g.n))


def test_chord_graph_tables_pass_by_keyword_only():
    """A table given by position would land in the wrong field unseen, so
    it is refused."""
    nodes, adj = ((0, 2), (1, 3)), (0b10, 0b01)
    with pytest.raises(TypeError):
        ChordGraph(nodes, adj, 0, 0, (0, 1, 2))
    assert ChordGraph(nodes, adj, 0, 0, y_cut=(2, 1)).x_start == ()


def test_worked_example_chord_edges(g8):
    g, p = g8
    cg = build_chord_graph(g, p)
    assert cg.nodes == ((0, 5), (0, 6), (0, 7), (1, 6), (1, 7), (2, 4), (3, 4), (3, 5))
    assert len(cg.edges()) == 9
    named = [(cg.nodes[i], cg.nodes[j]) for i, j in cg.edges()]
    assert named == [
        ((0, 5), (2, 4)),
        ((0, 6), (2, 4)),
        ((0, 7), (2, 4)),
        ((1, 6), (2, 4)),
        ((1, 6), (3, 4)),
        ((1, 6), (3, 5)),
        ((1, 7), (2, 4)),
        ((1, 7), (3, 4)),
        ((1, 7), (3, 5)),
    ]


def test_each_chord_edge_has_a_unique_rigid_witness(g8):
    g, p = g8
    cg = build_chord_graph(g, p)
    rigid = set(enumerate_rigid_pairs(g, p))
    seen = set()
    for i, j in cg.edges():
        rp = cg.witness(i, j)
        assert rp in rigid
        assert set(rp.chords) == {cg.nodes[i], cg.nodes[j]}
        seen.add(rp)
    # the correspondence is one-to-one: nine edges, nine rigid pairs
    assert seen == rigid
    with pytest.raises(InputError):
        cg.witness(0, 1)


def test_components_single_and_split(g8, disconnected7):
    g, p = g8
    assert components_by_bfs(build_chord_graph(g, p)) == [(0, 1, 2, 3, 4, 5, 6, 7)]
    g, p = disconnected7
    cg = build_chord_graph(g, p)
    assert components_by_bfs(cg) == [(0, 3), (1, 6), (4, 7)]


def test_bfs_queue_order_depths_and_parents(g8):
    g, p = g8
    cg = build_chord_graph(g, p)
    order, depth, parent, layers, inner = cg.bfs(0)
    assert order == [0, 5, 1, 2, 3, 4, 6, 7]
    assert depth == [0, 2, 2, 2, 2, 1, 3, 3]
    assert parent == [-1, 5, 5, 5, 5, 0, 3, 3]
    assert layers == [0b1, 0b100000, 0b11110, 0b11000000] and inner == []
    order, depth, parent, layers, inner = cg.bfs(5)
    assert order == [5, 0, 1, 2, 3, 4, 6, 7]
    assert depth == [1, 1, 1, 1, 1, 0, 2, 2]
    assert parent == [5, 5, 5, 5, 5, -1, 3, 3]
    assert layers == [0b100000, 0b11111, 0b11000000] and inner == []


def test_bfs_records_the_in_layer_nodes_of_a_triangle(triangle6):
    """Nodes 1 and 2 are both at depth 1 from node 0 and adjacent, so each
    has a neighbor in its own layer."""
    g, p = triangle6
    assert build_chord_graph(g, p).bfs(0) == ([0, 1, 2], [0, 1, 1], [-1, 0, 0], [0b1, 0b110], [1, 2])


def test_bfs_stays_in_the_root_component(disconnected7):
    g, p = disconnected7
    cg = build_chord_graph(g, p)
    order, depth, parent, layers, inner = cg.bfs(0)
    assert order == [0, 3]
    assert depth == [0, -1, -1, 1, -1, -1, -1, -1, -1]
    assert parent == [-1, -1, -1, 0, -1, -1, -1, -1, -1]
    assert layers == [0b1, 0b1000] and inner == []


REFUTE_SHAPES = ((3, 4, 3, 8), (3, 6, 3, 10), (4, 6, 4, 10), (4, 7, 4, 12), (5, 8, 5, 12))


def _refute_shaped_instances():
    """The block shapes of the refute-random benchmark workload, n = 18 to
    30, at the low, middle and high end of its densities."""
    for k, shape in enumerate(REFUTE_SHAPES):
        for density in (0.3, 0.5, 0.7):
            yield generate_bab(shape, density, 10 * k + round(10 * density))


def test_bfs_layers_and_inner_match_the_references():
    """From every non-isolated root: the layers equal the masks rebuilt
    from the queue order and depths, and the in-layer nodes equal the
    per-node test against them, on every instance with 4 vertices and on
    the refute-random shapes; the latter must record in-layer nodes."""
    roots = odd = 0
    cases = [*enumerate_bab_instances(4), *_refute_shaped_instances()]
    for g, p in cases:
        cg = build_chord_graph(g, p)
        for root in bits(cg.non_isolated_mask):
            layers, inner = cg.bfs(root)[3:]
            assert (layers, inner) == layers_and_inner_by_order(cg, root), (g.edges(), root)
            roots += 1
            odd += bool(inner)
    assert roots > 1000 and odd > 500


def test_audit_counts_the_reference_components(disconnected7):
    """The audit's component count equals the number of reference
    components: 3 on disconnected7, 6 on ``gen --sizes 2,3,2,6 --density
    0.3 --seed 0``, and likewise on sparse generated instances, which
    often split, on every instance with 4 vertices and on the refute-random
    shapes. A count of one or none reports nothing."""
    sparse = [generate_bab(shape, density, seed) for shape in ((2, 3, 2, 6), (3, 4, 3, 8))
              for density in (0.2, 0.3) for seed in range(10)]
    cases = [disconnected7, generate_bab((2, 3, 2, 6), 0.3, 0), *sparse, *enumerate_bab_instances(4),
             *_refute_shaped_instances()]
    split = []
    for g, p in cases:
        cg = build_chord_graph(g, p)
        k = len(components_by_bfs(cg))
        said = [f for f in audit_assumption1(g, p, cg) if "components" in f]
        assert said == ([f"chord graph splits into {k} non-isolated components"] if k > 1 else []), g.edges()
        split.append(k)
    assert split[:2] == [3, 6] and {2, 3, 4} <= set(split[2:])


def test_forced_color_node_sets(g8, c4):
    g, p = g8
    cg = build_chord_graph(g, p)
    forced_red, forced_blue = compute_ab_sets(cg)
    assert sorted(nodes_of(cg, forced_red)) == [(0, 5), (0, 6), (0, 7)]
    assert sorted(nodes_of(cg, forced_blue)) == [(3, 4), (3, 5)]
    g, p = c4
    assert compute_ab_sets(build_chord_graph(g, p)) == (0, 0)


def test_audit_accepts_the_worked_example(g8):
    g, p = g8
    assert audit_assumption1(g, p, build_chord_graph(g, p)) == ()


def test_audit_flags_disconnected_chord_graph(disconnected7):
    g, p = disconnected7
    failures = audit_assumption1(g, p, build_chord_graph(g, p))
    assert any("3 non-isolated components" in f for f in failures)


def test_audit_flags_private_degree_bounds(g8):
    g, p = g8
    # give the private a all of Y
    g_full = build_graph(g.n, g.edges() + [(0, 5), (0, 6), (0, 7)])
    failures = audit_assumption1(g_full, p, build_chord_graph(g_full, p))
    assert any("vertex 0 has 4 Y-neighbors out of 4" in f for f in failures)
    # and none of it
    g_none = build_graph(8, [e for e in g.edges() if e != (0, 4)])
    failures = audit_assumption1(g_none, p, build_chord_graph(g_none, p))
    assert any("vertex 0 has 0 Y-neighbors" in f for f in failures)


def test_audit_flags_dominated_private_b():
    g = build_graph(5, [
        (0, 1), (1, 2), (3, 4),
        (0, 3), (1, 3), (1, 4), (2, 3),
    ])
    p = validate_bab(g, [0, 1], [1, 2], [3, 4])
    failures = audit_assumption1(g, p, build_chord_graph(g, p))
    assert any("N_Y(2) nests inside" in f for f in failures)


def test_audit_flags_missing_core_edge():
    # every chord edge touches a private-side node here
    g = build_graph(6, [
        (0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (4, 5),
    ])
    p = validate_bab(g, [0, 1, 2], [1, 2, 3], [4, 5])
    failures = audit_assumption1(g, p, build_chord_graph(g, p))
    assert any("no chord-graph edge avoids" in f for f in failures)


def test_nonedge_classes(g8):
    g, p = g8
    cg = build_chord_graph(g, p)
    cls = classify_nonedges(g, p, cg)
    assert cls.isolated == frozenset()
    assert cls.linked == frozenset(cg.nodes)
    assert cls.cross == frozenset({(0, 3)})
