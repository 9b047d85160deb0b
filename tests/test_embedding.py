"""Forced sets, exact axis realizations and plane embeddings."""

import collections
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from squaregeo import build_graph, embedding, generate_bab, recognize, validate_bab
from squaregeo.embedding import (
    brute_force_orders,
    completion,
    embed,
    make_order_pair,
    realize_unit_interval,
    verify_embedding,
)
from squaregeo.errors import GenerationError, InputError, ScopeError, StructuralError

from conftest import bab_shapes
from oracles import (
    brute_force_orders_by_completion,
    chord_distribution,
    linf_embedding_report,
    mask_of_pairs,
    pairs_of,
    realize_unit_interval_of_augmented_graph,
    scan_completion,
    unavoidable_sets_by_definition,
    verify_embedding_by_pairs,
)

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
    """Bit u*n + v stands for the pair (u, v): (1, 2) is bit 6, (0, 3) bit 3."""
    g, _ = c4
    o = (0, 1, 2, 3)
    assert completion(g, o) == 1 << 6
    assert completion(g, (1, 0, 3, 2)) == 1 << 3
    assert pairs_of(completion(g, o), 4) == frozenset({(1, 2)})


def test_completion_reversal_invariant(g8):
    g, _ = g8
    for seq in (G8_ORDER1, G8_ORDER2):
        assert completion(g, seq) == completion(g, seq[::-1])


def test_completion_matches_edge_scan_exhaustively():
    for g in _labeled_graphs(4):
        for seq in itertools.permutations(range(4)):
            assert completion(g, seq) == mask_of_pairs(scan_completion(g, seq), 4)


def test_completion_matches_edge_scan_on_random_graphs():
    """The mask equals the scan's, bit for bit: no pair is missing and no
    bit is set outside the pairs u < v."""
    rng = random.Random(4)
    for _ in range(3000):
        n = rng.randint(0, 12)
        density = rng.random()
        g = build_graph(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        )
        seq = rng.sample(range(n), n)
        want = scan_completion(g, seq)
        forced = completion(g, tuple(seq))
        assert forced == mask_of_pairs(want, n)


def _leaves(g, sets=()):
    """Every (order, mask) the order search yields on g when rule (b) never
    comes on; with no listed sets nothing is cut but the orders larger than
    their reversal."""
    return list(embedding._clean_orders(g, embedding._Windows(g, list(sets))))


def test_completion_is_the_brute_force_mask():
    """On random graphs with n <= 6, the search with nothing to cut reaches
    exactly the permutations with ``perm[0] < perm[-1]`` (all of them at
    n = 1), in lexicographic order, and each one's mask is ``completion``'s
    and the covering scan's. With the graph's unavoidable sets listed, it
    reaches exactly those of them whose mask holds none of the sets: rule
    (a) cuts no order it should reach. Given a mask to avoid and a first
    vertex, it reaches exactly those of them that miss the mask and start
    at that vertex or later: rule (b) and the start cut no order either."""
    rng = random.Random(16)
    scanned = cut = 0
    tally = collections.Counter()
    for i in range(70):
        n = 1 + i % 6 if i < 60 else 6
        density = rng.random() * (1 if i < 60 else 0.3)
        g = build_graph(n, [
            (u, v) for u, v in itertools.combinations(range(n), 2)
            if (i >= 60 and u == 0) or rng.random() < density
        ])
        every = [perm for perm in itertools.permutations(range(n)) if n < 2 or perm[0] < perm[-1]]
        leaves = _leaves(g)
        assert [perm for perm, _ in leaves] == every
        for perm, mask in leaves:
            assert mask == completion(g, perm) == mask_of_pairs(scan_completion(g, perm), n), (g.edges(), perm)
        scanned += len(leaves)
        sets = embedding.unavoidable_sets(g)
        clean = [(perm, mask) for perm, mask in leaves if not any(u & mask == u for u in sets)]
        assert _leaves(g, sets) == clean, g.edges()
        cut += len(leaves) - len(clean)
        if clean:  # rule (b) with a middle order's mask, from its first vertex
            perm, avoid = clean[len(clean) // 2]
            partners = [(p, m) for p, m in clean if p[0] >= perm[0] and not m & avoid]
            assert list(embedding._clean_orders(g, embedding._Windows(g, sets), avoid, perm[0])) == partners
        tally[brute_force_orders(g) is None] += 1
    assert tally[False] >= 40 and tally[True] >= 3, tally
    assert scanned >= 2500 and cut >= 2000, (scanned, cut)


def test_order_pair_forced_sets_g8(g8):
    g, _ = g8
    pair = make_order_pair(
        g, G8_ORDER1, G8_ORDER2
    )
    assert sorted(pairs_of(pair.c1, 8)) == [(2, 4), (3, 4), (3, 5)]
    assert sorted(pairs_of(pair.c2, 8)) == [(0, 3), (0, 5), (0, 6), (0, 7), (1, 6), (1, 7)]
    assert pair.valid
    same = make_order_pair(g, G8_ORDER1, G8_ORDER1)
    assert not same.valid


def test_chord_distribution_c4(c4):
    g, p = c4
    pair = make_order_pair(
        g, (0, 1, 2, 3), (1, 0, 3, 2)
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
        g, G8_ORDER1, G8_ORDER2
    )
    dist = chord_distribution(g, p, pair)
    assert dist.ok
    assert len(dist.splits) == 9
    for split in dist.splits:
        assert split.in_first in pairs_of(pair.c1, 8)
        assert split.in_second in pairs_of(pair.c2, 8)
        assert {split.in_first, split.in_second} == {
            tuple(sorted(ch)) for ch in split.rigid.chords
        }


def test_chord_distribution_rejects_invalid_pair(c4):
    g, p = c4
    o = (0, 1, 2, 3)
    with pytest.raises(InputError, match="forced sets intersect"):
        chord_distribution(g, p, make_order_pair(g, o, o))


def test_realize_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    got = realize_unit_interval(g, (0, 1, 2))
    assert got == (Fraction(0), Fraction(1), Fraction(5, 4))


def test_realize_with_plateau():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (2, 4)])
    got = realize_unit_interval(g, (0, 1, 2, 3, 4))
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


def test_realize_accepts_a_non_interval_order():
    """Under (1, 0, 2) the edge 1~2 straddles the non-edge {0, 2}, so the
    path 0-1-2 is realized as its completion, the triangle."""
    g = build_graph(3, [(0, 1), (1, 2)])
    o = (1, 0, 2)
    assert pairs_of(completion(g, o), 3) == frozenset({(0, 2)})
    assert realize_unit_interval(g, o) == (Fraction(0), Fraction(0), Fraction(0))


def _assert_realizes_the_completion(g, o):
    """The realization equals the pair-and-gap reference run on G plus the
    order's forced set, and every coordinate's denominator divides n+1."""
    got = realize_unit_interval(g, o)
    augmented = build_graph(g.n, g.edges() + sorted(pairs_of(completion(g, o), g.n)))
    want = realize_unit_interval_of_augmented_graph(augmented, o)
    assert got == want, (g.edges(), o)
    assert all((g.n + 1) % x.denominator == 0 for x in got), (g.edges(), o)


def test_realize_matches_the_augmented_graph_reference():
    """Random graphs and orders up to n=12, most orders not interval-closed
    on G itself, then 300 up to n=60, and band graphs (i adjacent to
    i+1..i+k) in natural order at n=100 and 200: the realization equals
    the earlier one run on G plus the order's forced set."""
    rng = random.Random(11)
    closed = 0
    for i in range(2700):
        n = rng.randint(0 if i % 10 == 0 else 3, 12) if i < 2400 else rng.randint(13, 60)
        density = 0.15 + 0.7 * rng.random()
        g = build_graph(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        )
        o = tuple(rng.sample(range(n), n))
        closed += not completion(g, o)
        _assert_realizes_the_completion(g, o)
    assert closed < 480, closed
    for n in (100, 200):
        for k in (1, 3, 9):
            g = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, min(n, i + k + 1))])
            o = tuple(range(n))
            assert not completion(g, o)
            _assert_realizes_the_completion(g, o)


def test_realize_matches_the_reference_on_constructed_orders():
    """Both orders of 20 filtered instances that recognize as YES, with
    the reference's coordinates and denominators dividing n+1."""
    seen = 0
    seed = 0
    while seen < 20:
        shape = ((1, 2, 1, 3), (2, 2, 2, 4), (2, 3, 2, 4))[seed % 3]
        seed += 1
        try:
            g, p = generate_bab(shape, 0.5, seed, filter="sufficient")
        except GenerationError:
            continue
        cert = recognize(g, p)
        if cert.verdict != "yes":
            continue
        seen += 1
        for o in (cert.order1, cert.order2):
            _assert_realizes_the_completion(g, o)


def test_embed_c4(c4):
    g, _ = c4
    pair = make_order_pair(
        g, (0, 1, 2, 3), (1, 0, 3, 2)
    )
    emb = embed(g, pair)
    assert emb == C4_COORDS
    assert emb[3] == (Fraction(6, 5), Fraction(1))
    mism, boundary = linf_embedding_report(g, emb)
    assert mism == []


def test_embed_g8(g8):
    g, _ = g8
    pair = make_order_pair(
        g, G8_ORDER1, G8_ORDER2
    )
    emb = embed(g, pair)
    assert emb == G8_COORDS
    mism, boundary = linf_embedding_report(g, emb)
    assert mism == []
    assert boundary >= 1  # e.g. vertices 0 and 2 sit exactly one apart in x


def test_embed_checks_the_realized_axes(g8, monkeypatch):
    """The axes are checked once, by embed: a wrong coordinate from the axis
    realization still ends in StructuralError."""
    g, _ = g8
    pair = make_order_pair(
        g, G8_ORDER1, G8_ORDER2
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
    o = (0, 1, 2, 3)
    with pytest.raises(InputError):
        embed(g, make_order_pair(g, o, o))


def test_verify_embedding_boundary_semantics():
    edge = build_graph(2, [(0, 1)])
    on_boundary = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    assert verify_embedding(edge, on_boundary).ok

    hole = build_graph(2, [])
    chk = verify_embedding(hole, on_boundary)
    assert not chk.ok and chk.violation == (0, 1)

    nudged = ((Fraction(0), Fraction(0)), (Fraction(1001, 1000), Fraction(1)))
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
        got = verify_embedding(g, coords)
        assert got == verify_embedding_by_pairs(g, coords)
        verdicts.add(got.ok)
    assert verdicts == {True, False}


def test_verify_embedding_on_both_paths_matches_the_pair_loop(monkeypatch):
    """Coordinates in steps of 1/3, 1/7, 1/1000 and 1/(n+1), negative ones,
    and pairs at distance exactly 1 and exactly 1 + 1/(n+1) on an axis. An
    axis mixing 1/3 and 1/7 with a larger step has a common denominator
    above n+1 times its largest one and is swept on its Fractions; every
    other axis on ints. Both give the pair loop's verdict and first
    violation, and each axis the near masks of the plain Fraction sweep."""
    kernel = embedding._within_unit
    paths = collections.Counter()  # kernel calls on ints and on Fractions

    def counted(vals, unit):
        if all(type(x) is int for x in vals):
            paths["int"] += 1
        else:
            assert unit == 1 and all(type(x) is Fraction for x in vals)
            paths["fraction"] += 1
        return kernel(vals, unit)

    monkeypatch.setattr(embedding, "_within_unit", counted)
    rng = random.Random(11)
    steps = (Fraction(1, 3), Fraction(1, 7), Fraction(1, 1000))
    verdicts, gap_pairs = collections.Counter(), collections.Counter()
    for case in range(1500):
        n = case if case < 2 else rng.randint(2, 12)
        pool = rng.sample(steps + (Fraction(1, n + 1),), rng.randint(1, 4))
        gaps = (Fraction(1), 1 + Fraction(1, n + 1))
        xs, ys = [], []
        for _ in range(n):
            for axis in (xs, ys):
                if axis and rng.random() < 0.4:
                    axis.append(rng.choice(axis) + rng.choice((-1, 1)) * rng.choice(gaps))
                else:
                    axis.append(rng.randint(-12, 12) * rng.choice(pool))
        coords = tuple(zip(xs, ys))
        near = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if abs(xs[u] - xs[v]) <= 1 and abs(ys[u] - ys[v]) <= 1
        ]
        pairs = list(itertools.combinations(range(n), 2))
        flips = set(rng.sample(pairs, min(len(pairs), rng.choice((0, 0, 1, 3)))))
        g = build_graph(n, set(near) ^ flips)
        got = verify_embedding(g, coords)
        assert got == verify_embedding_by_pairs(g, coords)
        for axis in (xs, ys):
            assert embedding._near_on_axis(axis) == kernel(axis, 1)
        verdicts[got.ok] += 1
        for axis in (xs, ys):
            gap_pairs.update(abs(a - b) == 1 for a, b in itertools.combinations(axis, 2) if abs(a - b) in gaps)
    assert verdicts[True] > 300 and verdicts[False] > 300
    assert gap_pairs[True] > 1000 and gap_pairs[False] > 1000
    assert paths["int"] > 1000 and paths["fraction"] > 300


def test_verify_embedding_count_mismatch():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(InputError):
        verify_embedding(g, ((Fraction(0), Fraction(0)),))


def test_brute_force_c4(c4):
    g, _ = c4
    found = brute_force_orders(g)
    assert found is not None
    o1, o2 = found
    assert o1 == (0, 1, 2, 3)
    assert o2 == (1, 0, 3, 2)
    assert make_order_pair(g, o1, o2).valid


def test_brute_force_no_pair(triangle6):
    g, _ = triangle6
    assert brute_force_orders(g) is None


def test_brute_force_bound():
    g = build_graph(7, [])
    with pytest.raises(ScopeError, match=r"^brute force limited to 6 vertices, got 7$"):
        brute_force_orders(g)
    assert brute_force_orders(g, bound=7) is not None


def test_brute_force_memory_stays_flat():
    """The scan keeps one order per distinct forced set, not all n!/2
    orders: at n=8 its peak allocation stays under 1 MB."""
    g, _ = generate_bab((1, 2, 2, 3), 0.5, 0)
    tracemalloc.start()
    try:
        brute_force_orders(g, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _labeled_graphs(n: int):
    """Every graph on vertices 0..n-1, one per edge subset."""
    pairs = list(itertools.combinations(range(n), 2))
    for picks in itertools.product([0, 1], repeat=len(pairs)):
        yield build_graph(n, [e for e, keep in zip(pairs, picks) if keep])


class _CountedWindows(embedding._Windows):
    """The search's window cache, counting its reads: one per prefix whose
    last vertex has an earlier neighbor."""

    reads = 0

    def __getitem__(self, s):
        self.reads += 1
        return super().__getitem__(s)


def _recorded_searches(monkeypatch) -> list[dict]:
    """Patch the order search to record, per call of ``brute_force_orders``,
    the scan's window cache, whether the scan ran to its end (a NO, or the
    pairing after it), and the partner search: its start and whether it
    ran to its end, finding no partner. The partner search reads the
    scan's cache, so each call's reads are counted once."""
    calls = []
    clean_orders = embedding._clean_orders

    def recorded(g, win, *args):
        if args:  # the partner search: rule (b)'s mask and the first vertex
            assert win is calls[-1]["win"] and calls[-1]["partner"] is None
            search = calls[-1]["partner"] = {"start": args[1], "ended": False}
        else:  # the scan, which opens each call
            search = {"win": win, "ended": False, "partner": None}
            calls.append(search)
        yield from clean_orders(g, win, *args)
        search["ended"] = True

    monkeypatch.setattr(embedding, "_Windows", _CountedWindows)
    monkeypatch.setattr(embedding, "_clean_orders", recorded)
    return calls


def _reads_with_nothing_cut(g) -> int:
    """The windows the search reads on g with no set listed and rule (b)
    never on: the cost of visiting every prefix."""
    win = _CountedWindows(g, [])
    for _ in embedding._clean_orders(g, win):
        pass
    return win.reads


def test_brute_force_matches_the_completion_reference(monkeypatch):
    """The prefix search returns the same first pair as the per-permutation
    completion search, or None with it: on every labeled graph up to n=5,
    seeded instances of every n=6 and n=7 block shape, random graphs up to
    n=7 (40 of them at n=6 with a vertex adjacent to all others, which
    makes NO cases common), one more n=6 NO and three n=8 instances. Every
    path is taken: the scan stops early on some graphs and runs to its end
    on others; the partner search finds a partner, or finds none and the
    pairing then finds a pair or none; some partner searches start past
    vertex 0."""
    graphs = [g for n in range(6) for g in _labeled_graphs(n)]
    for n in (6, 7):
        for i, shape in enumerate(bab_shapes(n)):
            graphs.append(generate_bab(shape, 0.2 + 0.6 * (i % 7) / 6, i)[0])
    rng = random.Random(7)
    for hub in [False] * 60 + [True] * 40:
        n = 6 if hub else rng.randint(3, 7)
        density = rng.random() * (0.3 if hub else 1)
        graphs.append(build_graph(n, [
            (u, v) for u, v in itertools.combinations(range(n), 2)
            if (hub and u == 0) or rng.random() < density
        ]))
    for shape, seed in (((1, 2, 2, 3), 2), ((2, 1, 2, 3), 0), ((2, 2, 2, 2), 0)):
        graphs.append(generate_bab(shape, 0.5, seed)[0])
    # a NO whose first clean set has no partner, nor any pair of later sets:
    # the 4-cycle 0-4-1-5 and the 5-cycle 0-4-3-2-5 share the path 5-0-4
    graphs.append(build_graph(6, [(0, 4), (0, 5), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4)]))
    calls = _recorded_searches(monkeypatch)
    tally = collections.Counter()
    ran = collections.Counter()
    for g in graphs:
        calls.clear()
        found = brute_force_orders(g, 8)
        assert found == brute_force_orders_by_completion(g, 8), g.edges()
        tally[g.n == 8, found is not None] += 1
        if g.n >= 2:
            scan, = calls
            ran["full" if scan["ended"] else "early"] += 1
            partner = scan["partner"]
            if partner:
                ran["partner found" if not partner["ended"] else "pairing yes" if found else "pairing no"] += 1
                ran["start past 0"] += partner["start"] > 0
    print("search runs:", dict(ran))
    assert tally[False, False] >= 15 and tally[False, True] >= 1000, tally
    assert tally[True, False] == 2 and tally[True, True] == 1, tally
    assert ran["early"] >= 100 and ran["full"] >= 15, ran
    assert all(ran[path] >= 1 for path in ("partner found", "pairing yes", "pairing no", "start past 0")), ran


def test_brute_force_stops_early_on_most_block_shapes(monkeypatch):
    """On one seeded n=7 instance of each of the 56 block shapes the scan
    and the partner search together read fewer than a sixth of the windows
    that visiting every prefix reads, in total."""
    shapes = bab_shapes(7)
    assert len(shapes) == 56
    graphs = [generate_bab(shape, 0.2 + 0.6 * (i % 7) / 6, i)[0] for i, shape in enumerate(shapes)]
    every = sum(_reads_with_nothing_cut(g) for g in graphs)
    calls = _recorded_searches(monkeypatch)
    for g in graphs:
        brute_force_orders(g, 7)
    read = sum(call["win"].reads for call in calls)
    print("windows read:", read, "of", every)
    assert len(calls) == 56 and read < every // 6, (read, every)


def _corpus_instance(n: int, i: int):
    """Instance i of the seeded corpus on n vertices: every block shape with
    0-3 private a, 1-3 shared, 0-3 private b and 1-5 y vertices in turn,
    density 0.2 + 0.6*((i*37) % 100)/100 and seed 1000 + i."""
    shapes = [s for s in itertools.product(range(4), range(1, 4), range(4), range(1, 6)) if sum(s) == n]
    return generate_bab(shapes[i % len(shapes)], 0.2 + 0.6 * ((i * 37) % 100) / 100, 1000 + i)[0]


# The n=7 corpus instances on which the coloring refutation of
# ``recognize`` answers NO while an order pair exists.
WRONG_NO_7 = (523, 766, 917, 951, 1304, 1449)


def test_pruned_search_matches_the_reference_on_the_corpus():
    """Rules (a) and (b) change no answer: the prefix search returns what
    the per-permutation completion search returns on 300 seeded instances
    of the n=7 corpus, the six wrong NOs of ``recognize`` among them, and
    on 40 seeded n=8 instances."""
    rng = random.Random(19)
    picks7 = list(WRONG_NO_7) + rng.sample(sorted(set(range(1500)) - set(WRONG_NO_7)), 294)
    picks8 = rng.sample(range(1500), 40)
    tally = collections.Counter()
    for n, picks in ((7, picks7), (8, picks8)):
        for i in picks:
            g = _corpus_instance(n, i)
            found = brute_force_orders(g, 8)
            assert found == brute_force_orders_by_completion(g, 8), (n, i)
            tally[n, found is not None] += 1
    assert all(brute_force_orders(_corpus_instance(7, i), 7) is not None for i in WRONG_NO_7)
    print("answers:", dict(tally))
    assert tally[7, True] + tally[7, False] == 300 and tally[8, True] + tally[8, False] == 40
    assert tally[7, False] >= 5 and tally[8, False] >= 5, tally


def test_unavoidable_sets_match_the_definition():
    """The package lists exactly the induced 4-cycles' chord pairs and the
    induced claws' leaf pairs, each once: on every labeled graph up to n=5
    and on random graphs up to n=8."""
    graphs = [g for n in range(6) for g in _labeled_graphs(n)]
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(0, 8)
        density = rng.random()
        graphs.append(build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density]))
    listed = 0
    for g in graphs:
        got = embedding.unavoidable_sets(g)
        assert len(got) == len(set(got))
        assert set(got) == unavoidable_sets_by_definition(g), g.edges()
        listed += len(got)
    assert listed > 700


def test_every_order_meets_every_unavoidable_set():
    """Every order forces a pair of each listed set: on every permutation
    of random graphs up to n=6, and on 240 random orders of seeded n=7
    instances."""
    rng = random.Random(18)
    cases = []
    for i in range(40):
        n = 4 + i % 3
        density = 0.3 + 0.5 * rng.random()
        g = build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density])
        cases.append((g, list(itertools.permutations(range(n)))))
    for i, shape in enumerate(bab_shapes(7)[::7]):
        g = generate_bab(shape, 0.2 + 0.6 * (i % 7) / 6, i)[0]
        cases.append((g, [rng.sample(range(7), 7) for _ in range(30)]))
    met = 0
    for g, seqs in cases:
        sets = unavoidable_sets_by_definition(g)
        for seq in seqs:
            forced = completion(g, tuple(seq))
            assert all(forced & u for u in sets), (g.edges(), seq)
            met += len(sets)
    assert met > 15000
