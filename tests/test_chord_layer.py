"""The chord-graph layer at real sizes, against its slow references.

The chord graph, the forced sets, the rigid-free test and the derived
relations read vertex masks in place of node masks; each is checked here
against a reference that reads the definition node by node or edge by
edge. The instances are planted YES instances and generated ones, n = 40
to 110, with the partition as given and mirrored, and each also with its
ids shuffled, so that X is not a prefix of the ids and the per-x node
blocks do not follow the X ids one after the other.
"""

import random
from functools import lru_cache

from squaregeo import build_chord_graph, check_rigid_free, color_constrained, compute_ab_sets, recognize
from squaregeo.chords import y_end_masks
from squaregeo.graph import bits, mask_of, union_of
from squaregeo.instances import generate_bab
from squaregeo.orders import _transpose, derive_relations

from oracles import (
    ab_sets_by_node_scan,
    chord_adjacent_by_definition,
    chord_nodes_by_definition,
    derive_relations_by_adjacency,
    derive_relations_by_pairs,
    layers_and_inner_by_order,
    node_coloring,
    planted_bab,
    relabelled,
    relation_pairs,
    rigid_free_by_pair_scan,
)
from test_necessary import RIGID_FAIL_TWICE


def _blocks(n: int) -> tuple[int, int, int, int]:
    """Block sizes of n vertices: 15% private a, 20% shared, 15% private b,
    the rest Y."""
    a, s, b = round(0.15 * n), round(0.2 * n), round(0.15 * n)
    return (a, s, b, n - a - s - b)


@lru_cache(maxsize=None)
def _cases():
    """(label, g, p, chord graph) per instance, labelling and orientation;
    the label is (kind, n, seed, shuffled, mirrored). Every planted seed
    gives chord edges and passes the audit as given."""
    base = [("planted", n, seed, planted_bab(_blocks(n), seed)) for n, seed in ((40, 3), (70, 2), (110, 7))]
    base += [("generated", n, seed, generate_bab(_blocks(n), density, seed))
             for n, density, seed in ((40, 0.3, 4), (40, 0.7, 5), (60, 0.4, 6))]
    base.append(("rigid-fail-twice", 10, 169, generate_bab(*RIGID_FAIL_TWICE)))
    out = []
    for kind, n, seed, (g, p) in base:
        for shuffled, (h, q) in enumerate(((g, p), relabelled(g, p, seed))):
            for mirrored, r in enumerate((q, q.mirrored())):
                out.append(((kind, n, seed, shuffled, mirrored), h, r, build_chord_graph(h, r)))
    return tuple(out)


def test_shuffled_ids_interleave_x_and_y():
    for label, g, p, cg in _cases():
        x = p.x_a | p.x_b
        assert (x == (1 << x.bit_count()) - 1) != label[3], label


def test_planted_instances_are_never_refuted():
    """A planted instance embeds by construction, so no necessary
    condition may fail on it; the ones as given have chord edges, and the
    construction decides most of them."""
    verdicts = []
    for label, g, p, cg in _cases():
        if label[0] == "planted":
            verdicts.append(recognize(g, p).verdict)
            assert verdicts[-1] != "no", label
            assert label[4] or cg.non_isolated_mask, label
    assert verdicts.count("yes") == 4


def test_chord_graph_matches_definition():
    """Nodes, and each node's neighbor mask, from the pointwise definition
    in either orientation, at n <= 70. Mirroring the partition keeps both."""
    checked = 0
    for label, g, p, cg in _cases():
        if label[4]:
            continue
        m = build_chord_graph(g, p.mirrored())
        assert (m.nodes, m.adj) == (cg.nodes, cg.adj), label
        if label[1] > 70:
            continue
        assert list(cg.nodes) == chord_nodes_by_definition(g, p), label
        for i, u in enumerate(cg.nodes):
            want = mask_of(
                j for j, v in enumerate(cg.nodes)
                if chord_adjacent_by_definition(g, u, v) or chord_adjacent_by_definition(g, v, u)
            )
            assert cg.adj[i] == want, (label, u)
        checked += 1
    assert checked == 12


def test_bfs_layers_and_inner_match_the_references():
    """From every non-isolated root, as given and shuffled: the layers
    equal the masks rebuilt from the queue order and depths, and the
    in-layer nodes the per-node test against them. A planted instance's
    chord graph is bipartite, so no BFS on it records an in-layer node; the
    generated ones have odd cycles, so many do."""
    roots = {"planted": 0, "generated": 0}
    odd = {"planted": 0, "generated": 0}
    for (kind, *rest), g, p, cg in _cases():
        if kind not in roots or rest[-1]:
            continue
        for root in bits(cg.non_isolated_mask):
            layers, inner = cg.bfs(root)[3:]
            assert (layers, inner) == layers_and_inner_by_order(cg, root), (kind, rest, root)
            roots[kind] += 1
            odd[kind] += bool(inner)
    assert roots["planted"] > 2000 and roots["generated"] > 1000
    assert odd["planted"] == 0 and odd["generated"] > 1000


def test_y_cut_table_is_the_union_of_the_y_ends():
    for label, g, p, cg in _cases():
        by_y = y_end_masks(cg.nodes, g.n)
        want = [union_of(by_y, g.adj[v] & p.y) if p.x_all >> v & 1 else 0 for v in range(g.n)]
        assert list(cg.y_cut) == want, label


def test_forced_sets_match_the_node_scan():
    forced = 0
    for label, g, p, cg in _cases():
        ref = ab_sets_by_node_scan(cg, p)
        assert compute_ab_sets(cg) == ref, label
        forced += all(ref)
    assert forced > 10


def test_rigid_free_matches_the_pair_scan():
    seen_a = seen_b = 0
    for label, g, p, cg in _cases():
        rfr = check_rigid_free(g, p, cg)
        ref = rigid_free_by_pair_scan(g, p, cg)
        assert (rfr.a_violations, rfr.b_violations) == ref, label
        seen_a += len(ref[0])
        seen_b += len(ref[1])
    assert seen_a > 0 and seen_b > 0


def test_relations_match_the_references():
    """Under a coloring and under its swap: the canonical coloring where
    one exists, checked against the edge-by-edge reference too, and else a
    seeded split of the non-isolated nodes, for which no coloring exists on
    these generated instances."""
    proper = set()
    for label, g, p, cg in _cases():
        live = cg.non_isolated_mask
        red = color_constrained(cg, compute_ab_sets(cg))
        if isinstance(red, int):
            proper.add(label[0])
        else:
            red = random.Random(label[2]).getrandbits(len(cg.nodes)) & live
        for f in (red, live & ~red):
            rels = derive_relations(g, p, cg, f)
            assert rels == derive_relations_by_adjacency(cg, f, p), label
            if label[0] in proper:
                refs = derive_relations_by_pairs(cg, node_coloring(cg, f), p)
                assert [relation_pairs(rel) for rel in rels] == [sorted(ref.pairs) for ref in refs], label
    assert proper == {"planted", "rigid-fail-twice"}


def test_swapped_coloring_transposes_the_relations():
    """Under a proper coloring, the mirrored partition with red and blue
    swapped reads every chord edge from its other end, so both relations
    come out transposed."""
    colored = 0
    for label, g, p, cg in _cases():
        red = color_constrained(cg, compute_ab_sets(cg))
        if not isinstance(red, int):
            continue
        rel_x, rel_y = derive_relations(g, p, cg, red)
        swapped = derive_relations(g, p.mirrored(), cg, cg.non_isolated_mask & ~red)
        assert swapped == (_transpose(rel_x), _transpose(rel_y)), label
        colored += any(rel_x) and any(rel_y)
    assert colored == 16
