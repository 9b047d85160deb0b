"""Derived relations and the two-order construction."""

import itertools
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
    orders,
    validate_bab,
)
from squaregeo.embedding import make_order_pair
from squaregeo.errors import OrderConstructionError, ScopeError
from squaregeo.graph import bits, mask_of
from squaregeo.instances import generate_bab
from squaregeo.orders import (
    _nested_sequence,
    _pair_rules,
    _total_order,
    _transpose,
    build_order1,
    build_order2,
    derive_relations,
    validate_partial_order,
)

import oracles
from census import census
from oracles import (
    ArcConstraintSet,
    PairRelation,
    WholeSetConstraintSet,
    build_order1_by_whole_set,
    build_order2_by_whole_set,
    derive_relations_by_pairs,
    nesting_sequence_by_sets,
    node_coloring,
    out_set,
    planted_bab,
    relabelled,
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
    """The sufficiency verdict on (g, p), and whether construction swaps the
    sides: exactly when the a-side fails the rigid-free test."""
    cg = build_chord_graph(g, p)
    nec = check_necessary(g, p, cg)
    return check_sufficient(g, p, cg, nec), not nec.rigid_free.side_a_ok


def test_g8_relations_frozen(g8):
    g, p = g8
    cg, ab, col = _prepared(g, p)
    rel_x, rel_y = derive_relations(g, p, cg, col)
    assert relation_pairs(rel_x) == [(0, 2), (1, 2), (1, 3)]
    assert relation_pairs(rel_y) == [(4, 5), (4, 6), (4, 7), (5, 6), (5, 7)]
    assert rel_x[1] >> 3 & 1 and not rel_x[3] >> 1 & 1
    assert out_set(rel_y, 4) == frozenset({5, 6, 7})
    assert out_set(rel_y, 7) == frozenset()


def test_c4_relations_frozen(c4):
    g, p = c4
    cg, ab, col = _prepared(g, p)
    rel_x, rel_y = derive_relations(g, p, cg, col)
    assert relation_pairs(rel_x) == [(0, 1)]
    assert relation_pairs(rel_y) == [(2, 3)]


def test_relation_orientation_matches_coloring(g8):
    """Each chord edge orients its rigid pair red-side-first."""
    g, p = g8
    cg, ab, col = _prepared(g, p)
    rel_x, rel_y = derive_relations(g, p, cg, col)
    for i, j in cg.edges():
        if not (col >> i) & 1:
            i, j = j, i
        (x, yp), (xp, y) = cg.nodes[i], cg.nodes[j]
        assert rel_x[x] >> xp & 1
        assert rel_y[y] >> yp & 1


def test_partial_order_check_passes_g8(g8):
    g, p = g8
    cg, ab, col = _prepared(g, p)
    rel_x, rel_y = derive_relations(g, p, cg, col)
    assert validate_partial_order(rel_x)
    assert validate_partial_order(rel_y)


def test_partial_order_check_antisymmetry():
    assert validate_partial_order(relation_of(2, {(0, 1), (1, 0)})) is False
    # transitive, so only antisymmetry fails
    assert validate_partial_order(relation_of(2, {(0, 0), (0, 1), (1, 0), (1, 1)})) is False


def test_partial_order_check_out_set_containment():
    assert validate_partial_order(relation_of(3, {(0, 1), (1, 2)})) is False
    assert validate_partial_order(relation_of(3, {(0, 1), (1, 2), (0, 2)})) is True


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
                if not isinstance(col, int):
                    continue
                outcomes["colored"] += 1
                for f in (col, cg.non_isolated_mask & ~col):
                    refs = derive_relations_by_pairs(cg, node_coloring(cg, f), p)
                    for rel, ref in zip(derive_relations(g, p, cg, f), refs):
                        assert relation_pairs(rel) == sorted(ref.pairs), (shape, density, seed)
                        ok = validate_partial_order(rel)
                        assert ok == validate_partial_order_by_pairs(ref), (shape, density, seed)
                        outcomes["generated", ok] += 1
    rng = random.Random(0)
    for _ in range(2000):
        n = rng.randint(1, 7)
        pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
        ok = validate_partial_order(relation_of(n, pairs))
        assert ok == validate_partial_order_by_pairs(PairRelation(frozenset(range(n)), frozenset(pairs)))
        antisymmetric = not any((v, u) in pairs for u, v in pairs if u != v)
        outcomes["random", ok, antisymmetric] += 1
    assert outcomes["colored"] == 643
    assert outcomes["generated", False] == 2 * 5  # five instances, both colorings
    assert outcomes["generated", True] > 0
    assert all(outcomes["random", ok, anti] for ok, anti in ((True, True), (False, True), (False, False)))


def _tournament_arcs(rng: random.Random, n: int) -> tuple[str, list[tuple[int, int]]]:
    """The arcs of a tournament on 0..n-1: a strict total order on a random
    permutation as it stands, with one arc reversed, or with each arc
    reversed with probability 1/4."""
    perm = rng.sample(range(n), n)
    arcs = list(itertools.combinations(perm, 2))
    kind = rng.choice(["total", "reversed", "tournament"]) if arcs else "total"
    if kind == "reversed":
        i = rng.randrange(len(arcs))
        arcs[i] = arcs[i][::-1]
    elif kind == "tournament":
        arcs = [(b, a) if rng.random() < 0.25 else (a, b) for a, b in arcs]
    return kind, arcs


def test_toposort_matches_the_arc_reference():
    """The block sort against the original arc-set version, which sorts
    with Kahn's heap. The sort reads tournaments: on every strict total
    order it gives the reference's order, on every digraph with a cycle the
    reference's cycle, and on an acyclic input that is not a total order it
    raises ValueError. Where the reference's walk hits a vertex with no
    unplaced successor and fails, the cycle is the one the whole-set
    reference's pruned walk names.

    The inputs are tournaments (strict total orders on a random
    permutation, as they stand, with one arc reversed, or with arcs
    reversed at random) and random successor lists built from single arcs
    and from every vertex of one random mask before every other vertex of
    another. Each is sorted over all vertices and over a random vertex
    mask, where the references sort the arcs between members."""
    rng = random.Random(0)
    outcomes = Counter()
    for _ in range(6000):
        n = rng.randint(1, 9)
        if rng.random() < 0.5:
            kind, arcs = _tournament_arcs(rng, n)
        else:
            kind, arcs = "random", []
            for _ in range(rng.randint(0, 2 * n)):
                if rng.random() < 0.7:
                    us, vs = 1 << rng.randrange(n), 1 << rng.randrange(n)
                else:
                    us, vs = rng.getrandbits(n) & rng.getrandbits(n), rng.getrandbits(n)
                arcs += [(a, b) for a in bits(us) for b in bits(vs) if a != b]
        succ = [0] * n
        for a, b in arcs:
            succ[a] |= 1 << b
        for scope, mask in (("all", (1 << n) - 1), ("mask", rng.getrandbits(n))):
            ref, pruned = ArcConstraintSet(n), WholeSetConstraintSet(n)
            for a, b in arcs:
                if (mask >> a) & (mask >> b) & 1:
                    ref.add(a, b)
                    pruned.add(a, b)
            try:
                got = ("order", _total_order(succ, mask))
            except OrderConstructionError as exc:
                got = ("cycle", exc.cycle)
            except ValueError:
                got = ("not total",)
            try:
                order = tuple(v for v in ref.toposort() if (mask >> v) & 1)
                total = all(arc in ref.arcs for arc in itertools.combinations(order, 2))
                want = ("order", order) if total else ("not total",)
            except OrderConstructionError as exc:
                want = ("cycle", exc.cycle)
            except ValueError:
                with pytest.raises(OrderConstructionError) as exc:
                    pruned.toposort()
                want = ("cycle", exc.value.cycle)
                outcomes[scope, "dead end"] += 1
            assert got == want
            outcomes[scope, kind, got[0]] += 1
    for scope in ("all", "mask"):
        assert outcomes[scope, "dead end"] and outcomes[scope, "random", "not total"]
        assert not outcomes[scope, "total", "cycle"] and not outcomes[scope, "total", "not total"]
        for kind in ("reversed", "tournament"):
            assert outcomes[scope, kind, "order"] and outcomes[scope, kind, "cycle"]
            assert not outcomes[scope, kind, "not total"]
    assert outcomes["all", "total", "order"] > 1000
    assert outcomes["all", "reversed", "cycle"] > 400 and outcomes["all", "tournament", "cycle"] > 400
    assert outcomes["all", "random", "cycle"] > 1000 and outcomes["all", "random", "not total"] > 1000


@pytest.fixture
def sorted_sets(monkeypatch):
    """The constraint sets the whole-set reference builders sort, in order."""
    out = []

    class Recorded(WholeSetConstraintSet):
        def toposort(self):
            out.append(self)
            return super().toposort()

    monkeypatch.setattr(oracles, "WholeSetConstraintSet", Recorded)
    return out


def _match_whole_set_builders(g, p, sorted_sets, cases: Counter, where) -> None:
    """Both builders against the whole-set references on (g, p), under its
    coloring and under the swapped one, when it reaches construction; the
    two nesting sequences against the set reference's on every (g, p).

    The swapped coloring can make two blocks cycle; the reported cycle is
    then the first block's, where the reference may walk into the other
    one, so only its arcs are checked against the reference's constraints.
    ``cases`` counts the shape of the private sides under the coloring as
    given; under each coloring, whether Y's rules alone are a total order;
    and the cycles, with whether the first order's runs through a b."""

    def outcome(build, *args):
        try:
            return build(*args)
        except OrderConstructionError as exc:
            return exc

    cg = build_chord_graph(g, p)
    nec = check_necessary(g, p, cg)
    seqs = _nested_sequence(g, p.a_only, p.y), _nested_sequence(g, p.b_only, p.y)
    assert seqs == (nesting_sequence_by_sets(g, p.a_only, p.y), nesting_sequence_by_sets(g, p.b_only, p.y))
    if nec.status is not NecessaryStatus.PASS or None in seqs:
        return
    a_seq, b_seq = seqs
    f = nec.coloring
    for flipped, col in enumerate((f, cg.non_isolated_mask & ~f)):
        rel_x, rel_y = derive_relations(g, p, cg, col)
        if not (validate_partial_order(rel_x) and validate_partial_order(rel_y)):
            continue
        rules = _pair_rules(g, p, rel_x, rel_y)
        if not flipped:
            cases[bool(a_seq), bool(b_seq)] += 1
        y_total = isinstance(outcome(_total_order, [k | r for k, r in zip(*rules)], p.y), tuple)
        cases["y total", not flipped, y_total] += 1
        o1, o2 = outcome(build_order1, g, p, rules, a_seq, b_seq), outcome(build_order2, p, rules)
        for got, ref_build in ((o1, build_order1_by_whole_set), (o2, build_order2_by_whole_set)):
            want = outcome(ref_build, g, p, rel_x, rel_y)
            at = (*where, p, not flipped, ref_build.__name__)
            if isinstance(want, tuple):
                assert got == want, at
                continue
            assert isinstance(got, OrderConstructionError), at
            cycle, succ = got.cycle, sorted_sets[-1].succ
            assert len(set(cycle)) == len(cycle), at
            assert all((succ[a] >> b) & 1 for a, b in zip(cycle, cycle[1:] + cycle[:1])), at
            cases["cycle", not flipped] += 1
            if ref_build is build_order1_by_whole_set:
                cases["order1 cycle", y_total, bool(mask_of(cycle) & p.b_only)] += 1
        if isinstance(o1, tuple):
            a, s = len(a_seq), p.shared.bit_count()
            assert o1[:a] == a_seq and mask_of(o1[a:a + s]) == p.shared
        if isinstance(o2, tuple):
            assert mask_of(o2[:p.x_all.bit_count()]) == p.x_all


def test_builders_match_the_whole_set_reference(sorted_sets):
    """Both orders equal the ones the earlier builders gave by sorting the
    whole vertex set with the block layout as constraints. The corpus is
    every seeded instance with n <= 12 that reaches construction, in both
    orientations, under its coloring and under the swapped one. Each order
    starts with its blocks: all of X in the second, the a's in their nesting
    sequence and then the shared block in the first."""
    cases = Counter()
    for shape in itertools.product(range(4), range(1, 4), range(4), range(1, 6)):
        if sum(shape) > 12:
            continue
        for density, seed in itertools.product((0.3, 0.5, 0.7), range(10)):
            g, p0 = generate_bab(shape, density, seed)
            for p in (p0, p0.mirrored()):
                _match_whole_set_builders(g, p, sorted_sets, cases, (shape, density, seed))
    # (a_seq non-empty, b_seq non-empty): every case is reached
    assert cases[False, False] == 190 and cases[False, True] == 136
    assert cases[True, False] == 146 and cases[True, True] == 60
    assert not cases["cycle", True] and cases["cycle", False]
    assert cases["y total", False, False] and cases["order1 cycle", True, True]


def test_builders_match_the_whole_set_reference_at_benchmark_sizes(sorted_sets):
    """The same on planted instances of n = 40 to 110, with the benchmark's
    block shares and with one private side empty, each with its ids as
    planted (every b before every y) and shuffled, in both orientations.
    The seeds are ones whose instance passes the necessary conditions. Y's
    rules are a total order on each under its own coloring, so the b's go
    between the last a's Y-neighborhood and the rest of Y; with no a, they
    interleave with Y by least id, and with no b, Y is read off alone.
    Under the swapped coloring some Y rules cycle, and so do some fences."""
    cases = Counter()
    for sizes, seeds in (((6, 8, 6, 20), (3, 4)), ((10, 14, 10, 36), (0, 2)), ((16, 22, 16, 56), (0, 1)),
                         ((0, 14, 10, 46), (1, 2)), ((10, 14, 0, 46), (0, 2)),
                         ((0, 22, 16, 72), (0,)), ((16, 22, 0, 72), (0,))):
        for seed in seeds:
            g, p = planted_bab(sizes, seed)
            for h, q in ((g, p), relabelled(g, p, seed)):
                for r in (q, q.mirrored()):
                    _match_whole_set_builders(h, r, sorted_sets, cases, (sizes, seed))
    assert cases[True, True] == 10 and cases[False, True] == 6 and cases[True, False] == 12
    assert cases["y total", True, True] == 28 and not cases["y total", True, False]
    assert cases["y total", False, False] and cases["order1 cycle", True, True]


def test_g8_orders_frozen(g8):
    g, p = g8
    cg, ab, col = _prepared(g, p)
    rel_x, rel_y = derive_relations(g, p, cg, col)
    rules = _pair_rules(g, p, rel_x, rel_y)
    assert build_order1(g, p, rules, (0,), (3,)) == (0, 1, 2, 4, 3, 5, 6, 7)
    assert build_order2(p, rules) == (3, 2, 0, 1, 6, 7, 5, 4)


def test_c4_orders_frozen(c4):
    g, p = c4
    cg, ab, col = _prepared(g, p)
    rel_x, rel_y = derive_relations(g, p, cg, col)
    rules = _pair_rules(g, p, rel_x, rel_y)
    assert build_order1(g, p, rules, (), ()) == (0, 1, 2, 3)
    assert build_order2(p, rules) == (1, 0, 3, 2)


def test_check_sufficient_g8(g8):
    g, p = g8
    s, swaps = _sufficient(g, p)
    assert not swaps
    assert s.reason == ""
    assert s.orders[0] == (0, 1, 2, 4, 3, 5, 6, 7)
    assert s.orders[1] == (3, 2, 0, 1, 6, 7, 5, 4)


def test_swap_fires_when_only_b_side_is_free():
    """With roles exchanged, the overshoot instance is rigid-free only on
    its b side; construction swaps back and lands on the same orders.

    So does every census(6) instance that swaps: its verdict equals the one
    built on the mirror with the mirror's own chord graph and necessary
    verdict, which passes and does not swap. The mirror's canonical
    coloring is the complement of the instance's exactly when a node is
    forced, as construction assumes when it orients."""
    g = build_graph(7, REGION_OVERSHOOT_EDGES)
    p = validate_bab(g, [0, 1, 2], [1, 2, 3], [4, 5, 6])
    plain, swaps = _sufficient(g, p)
    assert not swaps and plain.orders is not None

    pm = validate_bab(g, [1, 2, 3], [0, 1, 2], [4, 5, 6])
    swapped, swaps = _sufficient(g, pm)
    assert swaps and swapped.reason == ""
    assert swapped.orders[0] == plain.orders[0] == (0, 2, 1, 5, 6, 3, 4)
    assert swapped.orders[1] == plain.orders[1] == (1, 2, 3, 0, 4, 5, 6)
    assert make_order_pair(g, *swapped.orders).valid

    forced = Counter()
    for g, p in census(6):
        cg = build_chord_graph(g, p)
        nec = check_necessary(g, p, cg)
        if nec.status is not NecessaryStatus.PASS or nec.rigid_free.side_a_ok:
            continue
        pm = p.mirrored()
        cgm = build_chord_graph(g, pm)
        necm = check_necessary(g, pm, cgm)
        assert necm.status is NecessaryStatus.PASS and necm.rigid_free.side_a_ok
        assert cgm.nodes == cg.nodes
        oriented = cg.non_isolated_mask & ~nec.coloring if any(nec.forced) else nec.coloring
        assert necm.coloring == oriented
        assert check_sufficient(g, p, cg, nec) == check_sufficient(g, pm, cgm, necm)
        forced[any(nec.forced)] += 1
    assert forced == {False: 6, True: 12}


def test_swap_without_forced_nodes_keeps_the_coloring():
    """No chord-graph node is forced here, so exchanging the sides keeps the
    canonical coloring instead of trading its classes."""
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3),
                        (3, 4), (3, 5), (4, 5)])
    p = validate_bab(g, [0, 1, 2], [1, 2], [3, 4, 5])
    cg, ab, _ = _prepared(g, p)
    assert ab == (0, 0)
    nec = check_necessary(g, p, cg)
    s = check_sufficient(g, p, cg, nec)
    assert not nec.rigid_free.side_a_ok
    assert s.orders[0] == (1, 2, 0, 4, 3, 5)
    assert s.orders[1] == (2, 1, 0, 3, 4, 5)
    assert make_order_pair(g, *s.orders).valid


def test_mirrored_g8_builds_without_swap(g8):
    """Both sides of the worked example are rigid-free, so exchanging the
    roles changes the constructed orders but not their validity."""
    g, _ = g8
    pm = validate_bab(g, [1, 2, 3], [0, 1, 2], [4, 5, 6, 7])
    s, swaps = _sufficient(g, pm)
    assert s.reason == "" and not swaps
    assert s.orders[0] == (3, 2, 1, 6, 7, 0, 5, 4)
    assert s.orders[1] == (0, 1, 3, 2, 4, 5, 6, 7)
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
    # the private a's cross, so they have no sequence, in either orientation
    assert _nested_sequence(g, p.b_only, p.y) == (4,)
    for q, crossing in ((p, p.a_only), (p.mirrored(), p.mirrored().b_only)):
        assert _nested_sequence(g, crossing, q.y) is None
        s, _ = _sufficient(g, q)
        assert s.reason == "nesting" and s.orders is None


def test_rigid_free_blocks_construction():
    g = build_graph(7, RIGID_FAIL_EDGES)
    p = validate_bab(g, [0, 1, 2], [1, 2, 3], [4, 5, 6])
    _assert_blocked(g, p, NecessaryStatus.FAIL)


def test_constraint_cycle_raises():
    with pytest.raises(OrderConstructionError) as exc:
        _total_order([0b010, 0b100, 0b001], 0b111)
    assert exc.value.cycle == (0, 1, 2)
    # the least unplaced vertex, 0, leads to no cycle; the cycle is 1 -> 2
    with pytest.raises(OrderConstructionError) as exc:
        _total_order([0b000, 0b101, 0b010], 0b111)
    assert exc.value.cycle == (1, 2)
    # distinct successor counts 2, 1, 0, but 0 and 1 precede each other
    with pytest.raises(OrderConstructionError) as exc:
        _total_order([0b110, 0b001, 0b000], 0b111)
    assert exc.value.cycle == (0, 1)


def test_constraint_tie_break_and_inclusion():
    """X pairs by Y-neighborhood inclusion and Y pairs by X-neighborhood
    nesting, in ``keep``, as is a private a and b that are not nested, b
    first; a Y pair that is not nested by the difference pattern, in
    ``flip``. No pair here is related."""
    # X_a = {0, 1, 2, 3}, X_b = {2, 3, 4}, Y = {5, 6, 7, 8}
    edges = [(u, v) for block in ((0, 1, 2, 3), (2, 3, 4), (5, 6, 7, 8)) for u, v in itertools.combinations(block, 2)]
    edges += [(0, 5), (0, 6), (0, 7), (1, 5), (2, 5), (2, 6), (3, 5), (3, 6), (4, 8)]
    g = build_graph(9, edges)
    p = validate_bab(g, [0, 1, 2, 3], [2, 3, 4], [5, 6, 7, 8])
    keep, flip = _pair_rules(g, p, (0,) * 9, (0,) * 9)
    pairs = set(relation_pairs(keep))
    assert (2, 3) in pairs and (3, 2) not in pairs  # equal masks: ascending id
    assert (1, 0) in pairs and (0, 1) not in pairs  # strictly larger mask second
    assert (4, 0) in pairs and (0, 4) not in pairs  # private a and b, not nested: b first
    assert (5, 7) in pairs  # bigger X-neighborhood first
    assert not {(7, 8), (8, 7)} & pairs
    assert relation_pairs(flip) == [(7, 8)]  # the a-side difference on the left


def test_order1_names_the_fence_cycle():
    """With a's and b's, the b's go between the last a's Y-neighborhood N
    and the rest of Y's order. When Y's order puts a y outside N before a
    y' in N, the fences close the cycle y, y', then the b's: the first
    such y and the last such y'. The rules here are made by hand."""
    # X_a = {0, 1}, X_b = {1, 2, 3}, Y = {4, 5, 6}; N = N_Y(0) = {4}
    edges = [(0, 1), (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (0, 4), (2, 5), (3, 5), (3, 6)]
    g = build_graph(7, edges)
    p = validate_bab(g, [0, 1], [1, 2, 3], [4, 5, 6])
    a_seq, b_seq = _nested_sequence(g, p.a_only, p.y), _nested_sequence(g, p.b_only, p.y)
    assert (a_seq, b_seq) == ((0,), (2, 3))

    def rules(y_order):
        keep = [0] * g.n
        for i, y in enumerate(y_order):
            keep[y] = mask_of(y_order[i + 1:])
        return keep, [0] * g.n

    assert build_order1(g, p, rules((4, 6, 5)), a_seq, b_seq) == (0, 1, 4, 2, 3, 6, 5)
    for y_order, cycle in (((5, 4, 6), (5, 4, 2, 3)), ((6, 5, 4), (6, 4, 2, 3))):
        with pytest.raises(OrderConstructionError) as exc:
            build_order1(g, p, rules(y_order), a_seq, b_seq)
        assert exc.value.cycle == cycle


def test_every_block_is_a_tournament():
    """Each block the orders sort, X and Y, has exactly one direction per
    pair under ``keep | flip`` (first order) and under ``keep`` with
    ``flip`` reversed (second order), with no vertex before itself: on
    every census(6) instance that reaches the placement rules, and on
    planted n=70 and n=110 instances, as ``check_sufficient`` orients
    them, under their coloring and under the swapped one."""
    planted = [planted_bab(sizes, seed) for sizes, seeds in (((10, 14, 10, 36), (0, 2)), ((16, 22, 16, 56), (0, 1)))
               for seed in seeds]
    counts = Counter()
    for g, p in itertools.chain(census(6), planted):
        cg = build_chord_graph(g, p)
        nec = check_necessary(g, p, cg)
        if nec.status is not NecessaryStatus.PASS:
            continue
        q = p if nec.rigid_free.side_a_ok else p.mirrored()
        red = nec.coloring if q is p or not any(nec.forced) else cg.non_isolated_mask & ~nec.coloring
        for flipped, col in enumerate((red, cg.non_isolated_mask & ~red)):
            rel_x, rel_y = derive_relations(g, q, cg, col)
            if not (validate_partial_order(rel_x) and validate_partial_order(rel_y)):
                continue
            keep, flip = _pair_rules(g, q, rel_x, rel_y)
            for succ in ([k | f for k, f in zip(keep, flip)], [k | f for k, f in zip(keep, _transpose(flip))]):
                pred = _transpose(succ)
                for block in (q.x_all, q.y):
                    for v in bits(block):
                        others = block & ~(1 << v)
                        assert (succ[v] | pred[v]) & block == others, (g, q, flipped, v)
                        assert not succ[v] & pred[v] & block, (g, q, flipped, v)
            counts[g.n, flipped] += 1
    assert all(counts[n, flipped] for n in (6, 70, 110) for flipped in (0, 1)), counts


def test_pair_rules_keep_the_relations_and_order2_puts_private_b_first(monkeypatch):
    """On every census(6) instance that reaches the placement rules, and on
    planted n=70 and n=110 instances, as ``check_sufficient`` orients them:
    ``flip`` holds exactly the relations' bits on the pairs they order, and
    ``keep`` none there; and in a second order that is built, every private
    a and private b whose Y-neighborhoods are not nested has the b first."""
    calls = []

    def recorded(g, p, rel_x, rel_y):
        rules = _pair_rules(g, p, rel_x, rel_y)
        calls.append((p, rel_x, rel_y, rules))
        return rules

    monkeypatch.setattr(orders, "_pair_rules", recorded)
    planted = [planted_bab(sizes, seed) for sizes, seeds in (((10, 14, 10, 36), (0, 2)), ((16, 22, 16, 56), (0, 1)))
               for seed in seeds]
    counts = Counter()
    for g, p in itertools.chain(census(6), planted):
        cg = build_chord_graph(g, p)
        nec = check_necessary(g, p, cg)
        if nec.status is not NecessaryStatus.PASS:
            continue
        calls.clear()
        verdict = check_sufficient(g, p, cg, nec)
        if not calls:
            continue
        (q, rel_x, rel_y, (keep, flip)), = calls
        rel = [x | y for x, y in zip(rel_x, rel_y)]
        for u, (r, t) in enumerate(zip(rel, _transpose(rel))):
            assert flip[u] & (r | t) == r and not keep[u] & (r | t), (g, q, u)
        counts[g.n, "rules"] += 1
        if verdict.orders is None:
            continue
        at = {v: i for i, v in enumerate(verdict.orders[1])}
        for a in bits(q.a_only):
            for b in bits(q.b_only):
                nya, nyb = g.adj[a] & q.y, g.adj[b] & q.y
                if nya & ~nyb and nyb & ~nya:
                    assert at[b] < at[a], (g, q, a, b)
                    counts[g.n, "pairs"] += 1
    assert all(counts[n, key] for n in (6, 70, 110) for key in ("rules", "pairs")), counts
