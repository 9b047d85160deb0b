"""Derived relations and the two-order construction."""

import random
from collections import Counter

import pytest

from squaregeo import (
    NecessaryStatus,
    build_chord_graph,
    build_graph,
    check_necessary,
    check_sufficient,
    color_constrained,
    compute_ab_sets,
    validate_bab,
)
from squaregeo.embedding import make_order_pair
from squaregeo.errors import OrderConstructionError, ScopeError
from squaregeo.graph import bits
from squaregeo.instances import generate_bab
from squaregeo.necessary import TwoColoring
from squaregeo.orders import (
    LinearOrder,
    _ConstraintSet,
    build_order1,
    build_order2,
    derive_relations,
    validate_partial_order,
)

from oracles import (
    ArcConstraintSet,
    PairRelation,
    constraint_arcs,
    derive_relations_by_pairs,
    node_coloring,
    out_set,
    relation_of,
    relation_pairs,
    validate_partial_order_by_pairs,
)
from test_necessary import REGION_OVERSHOOT_EDGES, RIGID_FAIL_EDGES
from test_pipeline import NON_NESTED_EDGES


def _prepared(g, p):
    cg = build_chord_graph(g, p)
    ab = compute_ab_sets(cg)
    col = color_constrained(cg, ab)
    return cg, ab, col


def _sufficient(g, p):
    cg = build_chord_graph(g, p)
    return check_sufficient(g, p, cg, check_necessary(g, p, cg))


def test_g8_relations_frozen(g8):
    g, p = g8
    cg, ab, col = _prepared(g, p)
    rel_x, rel_y = derive_relations(cg, col, p)
    assert relation_pairs(rel_x) == [(0, 2), (1, 2), (1, 3)]
    assert relation_pairs(rel_y) == [(4, 5), (4, 6), (4, 7), (5, 6), (5, 7)]
    assert rel_x.related(1, 3) and not rel_x.related(3, 1)
    assert out_set(rel_y, 4) == frozenset({5, 6, 7})
    assert out_set(rel_y, 7) == frozenset()


def test_c4_relations_frozen(c4):
    g, p = c4
    cg, ab, col = _prepared(g, p)
    rel_x, rel_y = derive_relations(cg, col, p)
    assert relation_pairs(rel_x) == [(0, 1)]
    assert relation_pairs(rel_y) == [(2, 3)]


def test_relation_orientation_matches_coloring(g8):
    """Each chord edge orients its rigid pair red-side-first."""
    g, p = g8
    cg, ab, col = _prepared(g, p)
    rel_x, rel_y = derive_relations(cg, col, p)
    for i, j in cg.edges():
        if not (col.red >> i) & 1:
            i, j = j, i
        (x, yp), (xp, y) = cg.nodes[i], cg.nodes[j]
        assert rel_x.related(x, xp)
        assert rel_y.related(y, yp)


def test_partial_order_check_passes_g8(g8):
    g, p = g8
    cg, ab, col = _prepared(g, p)
    rel_x, rel_y = derive_relations(cg, col, p)
    assert validate_partial_order(rel_x).ok
    assert validate_partial_order(rel_y).ok


def test_partial_order_check_antisymmetry():
    rel = relation_of(2, {(0, 1), (1, 0)})
    chk = validate_partial_order(rel)
    assert not chk.ok
    assert chk.antisymmetry_violation == (0, 1)
    assert chk.transitivity_violation is None


def test_partial_order_check_out_set_containment():
    rel = relation_of(3, {(0, 1), (1, 2)})
    chk = validate_partial_order(rel)
    assert not chk.ok
    assert chk.transitivity_violation == (0, 1, 2)


def test_relations_match_the_pair_reference():
    """Relation pairs and partial-order checks equal the original frozenset
    versions: on every seeded instance whose chord graph gets a coloring,
    under the coloring and its swap, and on random relations."""
    outcomes = Counter()
    for shape in ((1, 1, 1, 2), (1, 2, 1, 3), (2, 2, 2, 4), (2, 3, 2, 6), (3, 3, 3, 6), (3, 4, 3, 8)):
        for density in (0.3, 0.5, 0.7):
            for seed in range(100):
                g, p = generate_bab(shape, density, seed)
                cg = build_chord_graph(g, p)
                try:
                    col = color_constrained(cg, compute_ab_sets(cg))
                except ScopeError:
                    continue
                if not isinstance(col, TwoColoring):
                    continue
                outcomes["colored"] += 1
                for f in (col, TwoColoring(red=col.blue, blue=col.red)):
                    refs = derive_relations_by_pairs(cg, node_coloring(cg, f), p)
                    for rel, ref in zip(derive_relations(cg, f, p), refs):
                        assert relation_pairs(rel) == sorted(ref.pairs), (shape, density, seed)
                        chk = validate_partial_order(rel)
                        assert chk == validate_partial_order_by_pairs(ref), (shape, density, seed)
                        outcomes["generated", chk.ok] += 1
    rng = random.Random(0)
    for _ in range(2000):
        n = rng.randint(1, 7)
        pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
        chk = validate_partial_order(relation_of(n, pairs))
        assert chk == validate_partial_order_by_pairs(PairRelation(frozenset(range(n)), frozenset(pairs)))
        outcomes["random", chk.ok, chk.antisymmetry_violation is None] += 1
    assert outcomes["colored"] == 643
    assert outcomes["generated", False] == 2 * 5  # five instances, both colorings
    assert outcomes["generated", True] > 0
    assert all(outcomes["random", ok, anti] for ok, anti in ((True, True), (False, True), (False, False)))


def test_toposort_matches_the_arc_reference():
    """The same arcs, order and reported cycle as the original arc-set
    version, on random constraint sets built by add, add_inclusion and
    add_all. Where the original walk hit an unplaced vertex with no unplaced
    successor and failed, a real cycle is reported instead."""
    rng = random.Random(0)
    outcomes = Counter()
    for _ in range(3000):
        n = rng.randint(1, 9)
        cons, ref = _ConstraintSet(n), ArcConstraintSet(n)
        for _ in range(rng.randint(0, 2 * n)):
            kind = rng.random()
            u, v = rng.randrange(n), rng.randrange(n)
            if kind < 0.5:
                cons.add(u, v)
                ref.add(u, v)
            elif kind < 0.8:
                mu, mv = rng.getrandbits(3), rng.getrandbits(3)
                cons.add_inclusion(u, v, mu, mv)
                ref.add_inclusion(u, v, mu, mv)
            else:
                us, vs = rng.getrandbits(n) & rng.getrandbits(n), rng.getrandbits(n)
                cons.add_all(us, vs)
                for a in bits(us):
                    for b in bits(vs):
                        ref.add(a, b)
        assert constraint_arcs(cons) == ref.arcs
        try:
            got = ("order", cons.toposort())
        except OrderConstructionError as exc:
            got = ("cycle", exc.cycle)
        try:
            want = ("order", ref.toposort())
        except OrderConstructionError as exc:
            want = ("cycle", exc.cycle)
        except ValueError:
            cycle = got[1]
            assert got[0] == "cycle" and len(set(cycle)) == len(cycle)
            assert all((a, b) in ref.arcs for a, b in zip(cycle, cycle[1:] + cycle[:1]))
            want = got
            outcomes["dead end"] += 1
        assert got == want
        outcomes[got[0]] += 1
    assert outcomes["order"] and outcomes["cycle"] and outcomes["dead end"]


def test_linear_order_helpers():
    o = LinearOrder.from_seq([2, 0, 3, 1])
    assert o.seq == (2, 0, 3, 1)
    assert o.rank == (1, 3, 0, 2)
    assert o.before(2, 1) and not o.before(1, 0)
    assert len(o) == 4
    assert o.reversed().seq == (1, 3, 0, 2)
    assert o.reversed().reversed() == o


def test_g8_orders_frozen(g8):
    g, p = g8
    cg, ab, col = _prepared(g, p)
    rel_x, rel_y = derive_relations(cg, col, p)
    assert build_order1(g, p, rel_x, rel_y).seq == (0, 1, 2, 4, 3, 5, 6, 7)
    assert build_order2(g, p, rel_x, rel_y).seq == (3, 2, 0, 1, 6, 7, 5, 4)


def test_c4_orders_frozen(c4):
    g, p = c4
    cg, ab, col = _prepared(g, p)
    rel_x, rel_y = derive_relations(cg, col, p)
    assert build_order1(g, p, rel_x, rel_y).seq == (0, 1, 2, 3)
    assert build_order2(g, p, rel_x, rel_y).seq == (1, 0, 3, 2)


def test_check_sufficient_g8(g8):
    g, p = g8
    s = _sufficient(g, p)
    assert not s.swapped
    assert s.reason == ""
    assert s.orders[0].seq == (0, 1, 2, 4, 3, 5, 6, 7)
    assert s.orders[1].seq == (3, 2, 0, 1, 6, 7, 5, 4)


def test_swap_fires_when_only_b_side_is_free():
    """With roles exchanged, the overshoot instance is rigid-free only on
    its b side; construction swaps back and lands on the same orders."""
    g = build_graph(7, REGION_OVERSHOOT_EDGES)
    p = validate_bab(g, [0, 1, 2], [1, 2, 3], [4, 5, 6])
    plain = _sufficient(g, p)
    assert not plain.swapped and plain.orders is not None

    pm = validate_bab(g, [1, 2, 3], [0, 1, 2], [4, 5, 6])
    swapped = _sufficient(g, pm)
    assert swapped.swapped and swapped.reason == ""
    assert swapped.orders[0].seq == plain.orders[0].seq == (0, 2, 1, 5, 6, 3, 4)
    assert swapped.orders[1].seq == plain.orders[1].seq == (1, 2, 3, 0, 4, 5, 6)
    assert make_order_pair(g, *swapped.orders).valid


def test_swap_without_forced_nodes_keeps_the_coloring():
    """No chord-graph node is forced here, so exchanging the sides keeps the
    canonical coloring instead of trading its classes."""
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3),
                        (3, 4), (3, 5), (4, 5)])
    p = validate_bab(g, [0, 1, 2], [1, 2], [3, 4, 5])
    cg, ab, _ = _prepared(g, p)
    assert not ab.script_a_mask and not ab.script_b_mask
    s = check_sufficient(g, p, cg, check_necessary(g, p, cg))
    assert s.swapped
    assert s.orders[0].seq == (1, 2, 0, 4, 3, 5)
    assert s.orders[1].seq == (2, 1, 0, 3, 4, 5)
    assert make_order_pair(g, *s.orders).valid


def test_mirrored_g8_builds_without_swap(g8):
    """Both sides of the worked example are rigid-free, so exchanging the
    roles changes the constructed orders but not their validity."""
    g, _ = g8
    pm = validate_bab(g, [1, 2, 3], [0, 1, 2], [4, 5, 6, 7])
    s = _sufficient(g, pm)
    assert s.reason == "" and not s.swapped
    assert s.orders[0].seq == (3, 2, 1, 6, 7, 0, 5, 4)
    assert s.orders[1].seq == (0, 1, 3, 2, 4, 5, 6, 7)
    assert make_order_pair(g, *s.orders).valid


def _assert_blocked(g, p, status):
    cg = build_chord_graph(g, p)
    nec = check_necessary(g, p, cg)
    assert nec.status is status
    with pytest.raises(ScopeError, match="passing necessary verdict"):
        check_sufficient(g, p, cg, nec)


def test_coloring_refutation_blocks_construction(triangle6):
    _assert_blocked(*triangle6, NecessaryStatus.FAIL)


def test_out_of_scope_blocks_construction(disconnected7):
    _assert_blocked(*disconnected7, NecessaryStatus.OUT_OF_SCOPE)


def test_crossing_private_neighborhoods_fail_nesting():
    g = build_graph(8, NON_NESTED_EDGES)
    p = validate_bab(g, [0, 1, 2, 3], [2, 3, 4], [5, 6, 7])
    assert not p.a_nested
    s = _sufficient(g, p)
    assert s.reason == "nesting"
    assert s.orders is None and not s.swapped


def test_rigid_free_blocks_construction():
    g = build_graph(7, RIGID_FAIL_EDGES)
    p = validate_bab(g, [0, 1, 2], [1, 2, 3], [4, 5, 6])
    _assert_blocked(g, p, NecessaryStatus.FAIL)


def test_constraint_cycle_raises():
    cons = _ConstraintSet(3)
    cons.add(0, 1)
    cons.add(1, 2)
    cons.add(2, 0)
    with pytest.raises(OrderConstructionError) as exc:
        cons.toposort()
    assert exc.value.cycle == (0, 1, 2)
    # the least unplaced vertex, 0, leads to no cycle; the cycle is 1 -> 2
    cons = _ConstraintSet(3)
    cons.add(1, 2)
    cons.add(2, 1)
    cons.add(1, 0)
    with pytest.raises(OrderConstructionError) as exc:
        cons.toposort()
    assert exc.value.cycle == (1, 2)


def test_constraint_tie_break_and_inclusion():
    cons = _ConstraintSet(4)
    cons.add_inclusion(2, 1, 0b0011, 0b0011)  # equal masks: ascending id
    assert (1, 2) in constraint_arcs(cons)
    cons.add_inclusion(0, 3, 0b0111, 0b0011)  # strictly larger mask second
    assert (3, 0) in constraint_arcs(cons)
    cons.add_inclusion(0, 1, 0b0101, 0b0011)  # incomparable: no arc
    assert not {(0, 1), (1, 0)} & constraint_arcs(cons)
    assert cons.toposort() == (1, 2, 3, 0)
