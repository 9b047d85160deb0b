"""Randomized invariants, cross-checked against the reference scans."""

import random
from itertools import combinations, islice

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from squaregeo import build_graph, generate_bab, recognize
from squaregeo.embedding import brute_force_orders, completion

from oracles import (
    bab_draws,
    completion_closure_violations,
    linf_embedding_report,
    meets_sufficient_conditions,
    pairs_of,
    scan_completion,
    square_geometric_by_grid,
    square_geometric_by_order_search,
    umbrella_ok,
)

SHAPES = [
    (1, 1, 1, 2),
    (1, 2, 1, 2),
    (2, 1, 1, 2),
    (1, 1, 2, 2),
    (1, 2, 1, 3),
    (2, 2, 1, 2),
    (1, 3, 1, 2),
]
DENSITIES = [0.2, 0.35, 0.5, 0.65, 0.8]


@st.composite
def graph_and_order(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    edges = [e for e in pairs if draw(st.booleans())]
    seq = draw(st.permutations(list(range(n))))
    return build_graph(n, edges), tuple(seq)


@st.composite
def bab_and_order(draw):
    shape = draw(st.sampled_from(SHAPES))
    density = draw(st.sampled_from(DENSITIES))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    g, p = generate_bab(shape, density, seed)
    seq = draw(st.permutations(list(range(g.n))))
    return g, p, tuple(seq)


@given(graph_and_order())
def test_completion_matches_covering_scan(go):
    g, order = go
    assert pairs_of(completion(g, order), g.n) == scan_completion(g, order)


@given(graph_and_order())
def test_completion_satisfies_closure_facts(go):
    g, order = go
    comp = pairs_of(completion(g, order), g.n)
    assert completion_closure_violations(g, order, comp) == []


@given(bab_and_order())
@settings(deadline=None)
def test_block_closure_facts_hold(gpo):
    g, p, order = gpo
    comp = pairs_of(completion(g, order), g.n)
    assert completion_closure_violations(g, order, comp, p) == []


@given(
    st.sampled_from(SHAPES),
    st.sampled_from(DENSITIES),
    st.integers(min_value=0, max_value=10**6),
)
@settings(deadline=None, max_examples=40)
def test_accepted_orders_realize_their_augmented_graphs(shape, density, seed):
    draws = islice(bab_draws(shape, density, seed), 200)
    found = next((gp for gp in draws if meets_sufficient_conditions(*gp)), None)
    assume(found is not None)
    g, p = found
    cert = recognize(g, p)
    assume(cert.verdict == "yes")
    aug1 = build_graph(g.n, g.edges() + list(pairs_of(cert.completion1, g.n)))
    aug2 = build_graph(g.n, g.edges() + list(pairs_of(cert.completion2, g.n)))
    assert umbrella_ok(aug1, cert.order1)
    assert umbrella_ok(aug2, cert.order2)
    mismatches, _ = linf_embedding_report(g, cert.embedding)
    assert mismatches == []


def test_order_search_agrees_with_geometry_n4():
    pairs = list(combinations(range(4), 2))
    for bits in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if (bits >> i) & 1]
        g = build_graph(4, edges)
        by_orders = square_geometric_by_order_search(g)
        assert by_orders == square_geometric_by_grid(g)
        assert by_orders == (brute_force_orders(g) is not None)


@given(st.integers(min_value=0, max_value=10**6))
@settings(deadline=None, max_examples=15)
def test_order_search_agrees_with_geometry_n5(seed):
    rng = random.Random(seed)
    pairs = list(combinations(range(5), 2))
    edges = [e for e in pairs if rng.random() < rng.choice((0.3, 0.5, 0.7))]
    g = build_graph(5, edges)
    assert square_geometric_by_order_search(g) == square_geometric_by_grid(g)
