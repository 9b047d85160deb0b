"""Forced sets, exact axis realizations and plane embeddings."""

import itertools
import random
from fractions import Fraction

import pytest

from squaregeo import build_graph, embedding, validate_bab
from squaregeo.embedding import (
    Embedding,
    brute_force_orders,
    chord_distribution,
    completion,
    covering_edge,
    embed,
    make_order_pair,
    realize_unit_interval,
    verify_embedding,
    verify_orders,
)
from squaregeo.errors import InputError, ScopeError, StructuralError
from squaregeo.orders import LinearOrder

from oracles import linf_embedding_report, scan_completion, verify_embedding_by_pairs

G8_ORDER1 = (0, 1, 2, 4, 3, 5, 6, 7)
G8_ORDER2 = (3, 2, 0, 1, 6, 7, 5, 4)

G8_COORDS = (
    (Fraction(0), Fraction(1)),
    (Fraction(1, 9), Fraction(1)),
    (Fraction(1), Fraction(1, 9)),
    (Fraction(10, 9), Fraction(0)),
    (Fraction(1), Fraction(11, 9)),
    (Fraction(10, 9), Fraction(10, 9)),
    (Fraction(11, 9), Fraction(1)),
    (Fraction(11, 9), Fraction(1)),
)

C4_COORDS = (
    (Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(6, 5)),
    (Fraction(6, 5), Fraction(1)),
)


def test_completion_c4(c4):
    g, _ = c4
    o = LinearOrder.from_seq((0, 1, 2, 3))
    assert completion(g, o) == frozenset({(1, 2)})
    assert completion(g, LinearOrder.from_seq((1, 0, 3, 2))) == frozenset({(0, 3)})


def test_completion_reversal_invariant(g8):
    g, _ = g8
    for seq in (G8_ORDER1, G8_ORDER2):
        o = LinearOrder.from_seq(seq)
        assert completion(g, o) == completion(g, o.reversed())


def test_completion_matches_edge_scan_exhaustively():
    vertex_pairs = list(itertools.combinations(range(4), 2))
    for picks in itertools.product([0, 1], repeat=6):
        g = build_graph(4, [e for e, keep in zip(vertex_pairs, picks) if keep])
        for seq in itertools.permutations(range(4)):
            assert completion(g, LinearOrder.from_seq(seq)) == scan_completion(g, seq)


def test_completion_matches_edge_scan_on_random_graphs():
    rng = random.Random(4)
    for _ in range(3000):
        n = rng.randint(0, 12)
        density = rng.random()
        g = build_graph(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        )
        seq = rng.sample(range(n), n)
        assert completion(g, LinearOrder.from_seq(seq)) == scan_completion(g, seq)


def test_covering_edge(c4):
    g, _ = c4
    o = LinearOrder.from_seq((0, 1, 2, 3))
    assert covering_edge(g, o, 1, 2) == (0, 2)
    assert covering_edge(g, o, 2, 1) == (0, 2)
    assert covering_edge(g, o, 0, 3) is None


def test_verify_orders_reports_first_conflict(c4):
    g, _ = c4
    o = LinearOrder.from_seq((0, 1, 2, 3))
    chk = verify_orders(g, o, o)
    assert not chk.ok
    assert chk.conflict == (1, 2)
    assert chk.witness1 == (0, 2) and chk.witness2 == (0, 2)
    ok = verify_orders(g, o, LinearOrder.from_seq((1, 0, 3, 2)))
    assert ok.ok and ok.conflict is None


def test_order_pair_forced_sets_g8(g8):
    g, _ = g8
    pair = make_order_pair(
        g, LinearOrder.from_seq(G8_ORDER1), LinearOrder.from_seq(G8_ORDER2)
    )
    assert sorted(pair.c1) == [(2, 4), (3, 4), (3, 5)]
    assert sorted(pair.c2) == [(0, 3), (0, 5), (0, 6), (0, 7), (1, 6), (1, 7)]
    assert pair.valid
    same = make_order_pair(g, LinearOrder.from_seq(G8_ORDER1), LinearOrder.from_seq(G8_ORDER1))
    assert not same.valid


def test_chord_distribution_c4(c4):
    g, p = c4
    pair = make_order_pair(
        g, LinearOrder.from_seq((0, 1, 2, 3)), LinearOrder.from_seq((1, 0, 3, 2))
    )
    dist = chord_distribution(g, p, pair)
    assert dist.ok
    (split,) = dist.splits
    assert (split.rigid.x1, split.rigid.y1, split.rigid.x2, split.rigid.y2) == (0, 2, 1, 3)
    assert split.in_first == (1, 2)
    assert split.in_second == (0, 3)


def test_chord_distribution_g8(g8):
    g, p = g8
    pair = make_order_pair(
        g, LinearOrder.from_seq(G8_ORDER1), LinearOrder.from_seq(G8_ORDER2)
    )
    dist = chord_distribution(g, p, pair)
    assert dist.ok
    assert len(dist.splits) == 9
    for split in dist.splits:
        assert split.in_first in pair.c1
        assert split.in_second in pair.c2
        assert {split.in_first, split.in_second} == {
            tuple(sorted(ch)) for ch in split.rigid.chords
        }


def test_chord_distribution_rejects_invalid_pair(c4):
    g, p = c4
    o = LinearOrder.from_seq((0, 1, 2, 3))
    with pytest.raises(InputError, match="forced sets intersect"):
        chord_distribution(g, p, make_order_pair(g, o, o))


def test_realize_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    got = realize_unit_interval(g, LinearOrder.from_seq((0, 1, 2)))
    assert got == (Fraction(0), Fraction(1), Fraction(5, 4))


def test_realize_with_plateau():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (2, 4)])
    got = realize_unit_interval(g, LinearOrder.from_seq((0, 1, 2, 3, 4)))
    assert got == (
        Fraction(0),
        Fraction(1, 6),
        Fraction(7, 6),
        Fraction(7, 6),
        Fraction(4, 3),
    )
    for u in range(5):
        for v in range(u + 1, 5):
            assert (abs(got[u] - got[v]) <= 1) == g.adjacent(u, v)


def test_realize_rejects_non_interval_order():
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(StructuralError, match="unit interval"):
        realize_unit_interval(g, LinearOrder.from_seq((1, 0, 2)))


def test_embed_c4(c4):
    g, _ = c4
    pair = make_order_pair(
        g, LinearOrder.from_seq((0, 1, 2, 3)), LinearOrder.from_seq((1, 0, 3, 2))
    )
    emb = embed(g, pair)
    assert emb.coords == C4_COORDS
    assert emb.x(3) == Fraction(6, 5) and emb.y(3) == Fraction(1)
    mism, boundary = linf_embedding_report(g, emb.coords)
    assert mism == []


def test_embed_g8(g8):
    g, _ = g8
    pair = make_order_pair(
        g, LinearOrder.from_seq(G8_ORDER1), LinearOrder.from_seq(G8_ORDER2)
    )
    emb = embed(g, pair)
    assert emb.coords == G8_COORDS
    mism, boundary = linf_embedding_report(g, emb.coords)
    assert mism == []
    assert boundary >= 1  # e.g. vertices 0 and 2 sit exactly one apart in x


def test_embed_checks_the_realized_axes(g8, monkeypatch):
    """The axes are checked once, by embed: a wrong coordinate from the axis
    realization still ends in StructuralError."""
    g, _ = g8
    pair = make_order_pair(
        g, LinearOrder.from_seq(G8_ORDER1), LinearOrder.from_seq(G8_ORDER2)
    )
    real = embedding.realize_unit_interval

    def shifted(g_aug, o):
        coords = list(real(g_aug, o))
        coords[0] += 3
        return tuple(coords)

    monkeypatch.setattr(embedding, "realize_unit_interval", shifted)
    with pytest.raises(StructuralError, match="embedding check failed"):
        embed(g, pair)


def test_embed_rejects_invalid_pair(c4):
    g, _ = c4
    o = LinearOrder.from_seq((0, 1, 2, 3))
    with pytest.raises(InputError):
        embed(g, make_order_pair(g, o, o))


def test_verify_embedding_boundary_semantics():
    edge = build_graph(2, [(0, 1)])
    on_boundary = Embedding(coords=((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))
    assert verify_embedding(edge, on_boundary).ok

    hole = build_graph(2, [])
    chk = verify_embedding(hole, on_boundary)
    assert not chk.ok and chk.violation == (0, 1)

    nudged = Embedding(coords=((Fraction(0), Fraction(0)), (Fraction(1001, 1000), Fraction(1))))
    assert verify_embedding(hole, nudged).ok


def test_verify_embedding_matches_the_pair_loop():
    """Quarter-integer coordinates put many pairs at distance exactly 1;
    the graph is the points' own near graph with a few pairs flipped, so
    both passing embeddings and violations anywhere in the order occur."""
    rng = random.Random(7)
    verdicts = set()
    for _ in range(2000):
        n = rng.randint(0, 14)
        coords = tuple(
            (Fraction(rng.randint(0, 12), 4), Fraction(rng.randint(0, 12), 4)) for _ in range(n)
        )
        edges = {
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if abs(coords[u][0] - coords[v][0]) <= 1 and abs(coords[u][1] - coords[v][1]) <= 1
        }
        pairs = list(itertools.combinations(range(n), 2))
        for flip in rng.sample(pairs, min(len(pairs), rng.choice((0, 0, 1, 3)))):
            edges ^= {flip}
        g = build_graph(n, edges)
        e = Embedding(coords=coords)
        got = verify_embedding(g, e)
        assert got == verify_embedding_by_pairs(g, e)
        verdicts.add(got.ok)
    assert verdicts == {True, False}


def test_verify_embedding_count_mismatch():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(InputError):
        verify_embedding(g, Embedding(coords=((Fraction(0), Fraction(0)),)))


def test_brute_force_c4(c4):
    g, _ = c4
    found = brute_force_orders(g)
    assert found is not None
    o1, o2 = found
    assert o1.seq == (0, 1, 2, 3)
    assert o2.seq == (1, 0, 3, 2)
    assert make_order_pair(g, o1, o2).valid


def test_brute_force_no_pair(triangle6):
    g, _ = triangle6
    assert brute_force_orders(g) is None


def test_brute_force_bound():
    g = build_graph(7, [])
    with pytest.raises(ScopeError, match="limited to 6"):
        brute_force_orders(g)
    assert brute_force_orders(g, bound=7) is not None
