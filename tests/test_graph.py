"""Graph container, partition validation and the interval-order test."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from squaregeo import build_graph, is_unit_interval_order, validate_bab
from squaregeo.errors import InputError, ScopeError, StructuralError
from squaregeo.graph import bits, mask_of, ny_mask

from oracles import NestingRelation, members, nesting, non_edges, umbrella_ok


def test_build_graph_edges_are_sorted_and_symmetric():
    g = build_graph(4, [(3, 1), (0, 2), (1, 0)])
    assert g.edges() == [(0, 1), (0, 2), (1, 3)]
    assert g.edge_count() == 3
    assert g.adjacent(1, 3) and g.adjacent(3, 1)
    assert not g.adjacent(0, 3)
    assert g.neighbors(0) == (1, 2)
    assert g.degree(0) == 2


def test_non_edges_complement_edges():
    g = build_graph(4, [(0, 1), (2, 3)])
    all_pairs = set(itertools.combinations(range(4), 2))
    assert set(g.edges()) | set(non_edges(g)) == all_pairs
    assert not set(g.edges()) & set(non_edges(g))


def test_build_graph_rejects_bad_input():
    with pytest.raises(InputError):
        build_graph(3, [(0, 3)])
    with pytest.raises(InputError):
        build_graph(3, [(1, 1)])
    with pytest.raises(InputError):
        build_graph(-1, [])


def test_with_edges_returns_fresh_graph():
    g = build_graph(3, [(0, 1)])
    h = g.with_edges([(1, 2)])
    assert h.adjacent(1, 2)
    assert not g.adjacent(1, 2)
    with pytest.raises(InputError):
        g.with_edges([(2, 2)])


def test_bits_and_mask_of_round_trip():
    vs = [0, 3, 5]
    assert list(bits(mask_of(vs))) == vs
    assert mask_of([]) == 0


def test_nesting_reports_all_four_outcomes():
    # scope = {3, 4, 5}; neighborhoods inside it decide the outcome
    g = build_graph(6, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 5)])
    scope = [3, 4, 5]
    assert nesting(g, 0, 1, scope) is NestingRelation.EQUAL
    g2 = build_graph(6, [(0, 3), (1, 3), (1, 4)])
    assert nesting(g2, 0, 1, scope) is NestingRelation.LEFT_SUBSET
    assert nesting(g2, 1, 0, scope) is NestingRelation.RIGHT_SUBSET
    assert nesting(g, 1, 2, scope) is NestingRelation.CROSSING


def test_validate_bab_worked_example_fields(g8):
    g, p = g8
    assert members(p.shared) == {1, 2}
    assert members(p.a_only) == {0}
    assert members(p.b_only) == {3}
    assert members(p.x_all) == {0, 1, 2, 3}
    assert members(p.y) == {4, 5, 6, 7}
    assert p.a_seq == (0,)
    assert p.b_seq == (3,)
    assert p.a_nested and p.b_nested
    assert p.x_a == 0b0111
    assert p.x_b == 0b1110
    assert p.shared == 0b0110
    assert p.y == 0b11110000
    assert ny_mask(g, p, 0) == 1 << 4


def test_validate_bab_equal_cliques(c4):
    g, p = c4
    assert members(p.shared) == {0, 1}
    assert not p.a_only and not p.b_only
    assert p.a_seq == () and p.a_nested
    assert p.b_seq == () and p.b_nested


def test_nesting_sequence_orders_private_vertices_by_inclusion():
    # two private a's: N_Y(0) = {4}, N_Y(1) = {4, 5}; shared 2, 3
    g = build_graph(6, [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        (4, 5),
        (0, 4), (1, 4), (1, 5), (2, 4), (3, 5),
    ])
    p = validate_bab(g, [0, 1, 2, 3], [2, 3], [4, 5])
    assert p.a_seq == (0, 1)
    assert p.a_nested
    # crossing neighborhoods clear the sequence and the flag
    g2 = build_graph(6, [e for e in g.edges() if e != (1, 4)])
    p2 = validate_bab(g2, [0, 1, 2, 3], [2, 3], [4, 5])
    assert not p2.a_nested
    assert p2.a_seq == ()


def test_validate_bab_rejects_broken_partitions():
    g = build_graph(4, [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2), (0, 3)])
    with pytest.raises(StructuralError, match="overlap"):
        validate_bab(g, [0, 1], [1, 2], [2, 3])
    with pytest.raises(StructuralError, match="cover"):
        validate_bab(g, [0], [1], [2])
    with pytest.raises(StructuralError, match="intersect"):
        validate_bab(g, [0], [1], [2, 3])
    # an id outside 0..n-1 is refused by the cover check, before any mask
    # is built from it
    for bad in (-1, 10**20):
        with pytest.raises(StructuralError, match="cover"):
            validate_bab(g, [0, 1], [1, 2], [3, bad])


def test_validate_bab_caps_the_listed_vertices():
    g = build_graph(30, [])
    with pytest.raises(StructuralError) as overlap:
        validate_bab(g, range(25), range(25), range(30))
    assert str(overlap.value) == (
        "X and Y overlap on [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, … (15 more)]"
    )
    with pytest.raises(StructuralError) as cover:
        validate_bab(g, [0], [0], range(100, 150))
    assert str(cover.value) == (
        "sets do not cover V: missing=[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, … (19 more)] "
        "extra=[100, 101, 102, 103, 104, 105, 106, 107, 108, 109, … (40 more)]"
    )
    with pytest.raises(StructuralError) as ten:
        validate_bab(g, [0], [0], range(1, 20))
    assert str(ten.value) == (
        "sets do not cover V: missing=[20, 21, 22, 23, 24, 25, 26, 27, 28, 29] extra=[]"
    )


def test_validate_bab_names_the_missing_clique_edge():
    g = build_graph(4, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(StructuralError, match=r"Y is not a clique: missing edge \(2,3\)"):
        validate_bab(g, [0, 1], [0, 1], [2, 3])


def test_validate_bab_reports_the_first_bad_pair_of_a_pair_scan():
    """The clique and private-side checks name the pair a scan over every
    pair would name first: sets in the order X_a, X_b, Y, pairs ascending."""
    rng = random.Random(5)
    outcomes = set()
    for _ in range(1500):
        n = rng.randint(3, 9)
        block = [rng.choice("asby") for _ in range(n)]
        block[rng.randrange(n)] = "s"
        xa = [v for v in range(n) if block[v] in "as"]
        xb = [v for v in range(n) if block[v] in "sb"]
        ys = [v for v in range(n) if block[v] == "y"]
        pairs = list(itertools.combinations(range(n), 2))
        g = build_graph(n, [e for e in pairs if rng.random() < 0.93])
        want = None
        for name, members in (("X_a", xa), ("X_b", xb), ("Y", ys)):
            missing = [e for e in itertools.combinations(sorted(members), 2) if not g.adjacent(*e)]
            if missing and want is None:
                want = f"{name} is not a clique: missing edge ({missing[0][0]},{missing[0][1]})"
        if want is None:
            private = [(a, b) for a in sorted(set(xa) - set(xb)) for b in sorted(set(xb) - set(xa))]
            cross = [e for e in private if g.adjacent(*e)]
            if cross:
                want = f"edge ({cross[0][0]},{cross[0][1]}) joins the private sides of X_a and X_b"
        try:
            validate_bab(g, xa, xb, ys)
            got = None
        except (StructuralError, ScopeError) as exc:
            got = str(exc)
        assert got == want, (g.edges(), xa, xb, ys)
        outcomes.add(want.split()[0] if want else None)
    assert outcomes == {None, "X_a", "X_b", "Y", "edge"}


def test_private_cross_edge_is_out_of_scope():
    # 0 private to X_a, 2 private to X_b, and 0 ~ 2
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)])
    with pytest.raises(ScopeError, match=r"\(0,2\)"):
        validate_bab(g, [0, 1], [1, 2], [3])


def test_mirrored_swaps_the_roles_and_is_an_involution(g8):
    _, p = g8
    q = p.mirrored()
    assert q.x_a == p.x_b and q.x_b == p.x_a
    assert q.a_seq == p.b_seq and q.b_seq == p.a_seq
    assert q.mirrored() == p


def test_unit_interval_order_on_a_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert is_unit_interval_order(g, (0, 1, 2))
    assert not is_unit_interval_order(g, (1, 0, 2))
    with pytest.raises(InputError):
        is_unit_interval_order(g, (0, 1))


def test_unit_interval_order_matches_three_point_scan_exhaustively():
    """Every graph on 4 vertices, every order: the incremental test agrees
    with the direct three-point scan."""
    pairs = list(itertools.combinations(range(4), 2))
    for bitsum in range(1 << len(pairs)):
        g = build_graph(4, [pairs[i] for i in range(len(pairs)) if (bitsum >> i) & 1])
        for seq in itertools.permutations(range(4)):
            assert is_unit_interval_order(g, seq) == umbrella_ok(g, seq)


def test_unit_interval_order_matches_three_point_scan_on_random_orders():
    """Random graphs, and near graphs of points on a quarter-integer line
    (unit interval graphs) under their sorted order and random orders."""
    rng = random.Random(3)
    verdicts = set()
    for _ in range(3000):
        n = rng.randint(0, 10)
        if rng.random() < 0.5:
            density = rng.random()
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
            seqs = [rng.sample(range(n), n)]
        else:
            xs = [Fraction(rng.randint(0, 4 * n), 4) for _ in range(n)]
            edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if abs(xs[u] - xs[v]) <= 1]
            seqs = [sorted(range(n), key=xs.__getitem__), rng.sample(range(n), n)]
        g = build_graph(n, edges)
        for seq in seqs:
            got = is_unit_interval_order(g, seq)
            assert got == umbrella_ok(g, seq)
            verdicts.add(got)
    assert verdicts == {True, False}


@given(st.integers(2, 7), st.data())
def test_unit_interval_order_matches_three_point_scan_random(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    g = build_graph(n, chosen)
    seq = tuple(data.draw(st.permutations(range(n))))
    assert is_unit_interval_order(g, seq) == umbrella_ok(g, seq)
