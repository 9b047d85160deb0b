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
from squaregeo.chords import RigidPair, make_rigid_pair
from squaregeo.errors import InputError

from conftest import enumerate_bab_instances
from oracles import (
    chord_adjacent_by_definition,
    chord_nodes_by_definition,
    classify_nonedges,
    edge_pairs,
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
        k = cg.node_count()
        for i in range(k):
            for j in range(i + 1, k):
                want = chord_adjacent_by_definition(
                    g, cg.nodes[i], cg.nodes[j]
                ) or chord_adjacent_by_definition(g, cg.nodes[j], cg.nodes[i])
                assert bool((cg.adj[i] >> j) & 1) == want


def test_worked_example_chord_edges(g8):
    g, p = g8
    cg = build_chord_graph(g, p)
    assert cg.nodes == ((0, 5), (0, 6), (0, 7), (1, 6), (1, 7), (2, 4), (3, 4), (3, 5))
    assert cg.edge_count() == 9
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


def test_node_index_rejects_unknown_pairs(c4):
    g, p = c4
    cg = build_chord_graph(g, p)
    assert cg.node_index((0, 3)) == 0
    with pytest.raises(InputError):
        cg.node_index((0, 2))


def test_components_single_and_split(g8, disconnected7):
    g, p = g8
    assert build_chord_graph(g, p).components() == [(0, 1, 2, 3, 4, 5, 6, 7)]
    g, p = disconnected7
    cg = build_chord_graph(g, p)
    assert cg.components() == [(0, 3), (1, 6), (4, 7)]


def test_bfs_queue_order_depths_and_parents(g8):
    g, p = g8
    cg = build_chord_graph(g, p)
    order, depth, parent = cg.bfs(0)
    assert order == [0, 5, 1, 2, 3, 4, 6, 7]
    assert depth == [0, 2, 2, 2, 2, 1, 3, 3]
    assert parent == [-1, 5, 5, 5, 5, 0, 3, 3]
    order, depth, parent = cg.bfs(5)
    assert order == [5, 0, 1, 2, 3, 4, 6, 7]
    assert depth == [1, 1, 1, 1, 1, 0, 2, 2]
    assert parent == [5, 5, 5, 5, 5, -1, 3, 3]


def test_bfs_stays_in_the_root_component(disconnected7):
    g, p = disconnected7
    cg = build_chord_graph(g, p)
    order, depth, parent = cg.bfs(0)
    assert order == [0, 3]
    assert depth == [0, -1, -1, 1, -1, -1, -1, -1, -1]
    assert parent == [-1, -1, -1, 0, -1, -1, -1, -1, -1]


def test_forced_color_node_sets(g8, c4):
    g, p = g8
    cg = build_chord_graph(g, p)
    ab = compute_ab_sets(cg)
    assert sorted(nodes_of(cg, ab.script_a_mask)) == [(0, 5), (0, 6), (0, 7)]
    assert sorted(nodes_of(cg, ab.script_b_mask)) == [(3, 4), (3, 5)]
    g, p = c4
    ab = compute_ab_sets(build_chord_graph(g, p))
    assert not ab.script_a_mask and not ab.script_b_mask


def test_audit_accepts_the_worked_example(g8):
    g, p = g8
    rep = audit_assumption1(g, p, build_chord_graph(g, p))
    assert rep.compliant
    assert rep.failures == ()


def test_audit_flags_disconnected_chord_graph(disconnected7):
    g, p = disconnected7
    rep = audit_assumption1(g, p, build_chord_graph(g, p))
    assert not rep.compliant
    assert any("3 non-isolated components" in f for f in rep.failures)


def test_audit_flags_private_degree_bounds(g8):
    g, p = g8
    # give the private a all of Y
    g_full = g.with_edges([(0, 5), (0, 6), (0, 7)])
    rep = audit_assumption1(g_full, p, build_chord_graph(g_full, p))
    assert any("vertex 0 has 4 Y-neighbors out of 4" in f for f in rep.failures)
    # and none of it
    g_none = build_graph(8, [e for e in g.edges() if e != (0, 4)])
    rep = audit_assumption1(g_none, p, build_chord_graph(g_none, p))
    assert any("vertex 0 has 0 Y-neighbors" in f for f in rep.failures)


def test_audit_flags_dominated_private_b():
    g = build_graph(5, [
        (0, 1), (1, 2), (3, 4),
        (0, 3), (1, 3), (1, 4), (2, 3),
    ])
    p = validate_bab(g, [0, 1], [1, 2], [3, 4])
    rep = audit_assumption1(g, p, build_chord_graph(g, p))
    assert any("N_Y(2) nests inside" in f for f in rep.failures)


def test_audit_flags_missing_core_edge():
    # every chord edge touches a private-side node here
    g = build_graph(6, [
        (0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (4, 5),
    ])
    p = validate_bab(g, [0, 1, 2], [1, 2, 3], [4, 5])
    rep = audit_assumption1(g, p, build_chord_graph(g, p))
    assert any("no chord-graph edge avoids" in f for f in rep.failures)


def test_nonedge_classes(g8):
    g, p = g8
    cg = build_chord_graph(g, p)
    cls = classify_nonedges(g, p, cg)
    assert cls.isolated == frozenset()
    assert cls.linked == frozenset(cg.nodes)
    assert cls.cross == frozenset({(0, 3)})
