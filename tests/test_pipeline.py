"""End-to-end recognition: verdicts, routes, reasons and certificates."""

import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from squaregeo import (
    build_chord_graph,
    build_graph,
    check_necessary,
    check_rigid_free,
    check_sufficient,
    chords,
    color_constrained,
    compute_ab_sets,
    embedding,
    emit_certificate,
    necessary,
    orders,
    parse_certificate,
    pipeline,
    recognize,
    validate_bab,
    verify_certificate,
)
from squaregeo.chords import ChordGraph, y_end_masks
from squaregeo.embedding import completion, embed, make_order_pair
from squaregeo.errors import OrderConstructionError, ParseError
from squaregeo.instances import _PAIR_LINE
from squaregeo.necessary import rigid_region_sets
from squaregeo.orders import SufficiencyVerdict, derive_relations
from squaregeo.pipeline import NO, UNDECIDED, YES

from oracles import mask_of_pairs, pairs_of, verify_certificate_by_sets, verify_embedding_by_pairs
from test_acceptance import G8_GOLDEN
from test_necessary import (
    FORCED_CONFLICT_EDGES,
    REGION_OVERSHOOT_EDGES,
    RIGID_FAIL_EDGES,
)

# recognize(*disconnected7, allow_oracle=True, oracle_bound=7), emitted
D7_ORACLE_YES = (
    "bab-certificate v1\n"
    "verdict yes\n"
    "route oracle\n"
    "reason audit: chord graph splits into 3 non-isolated components\n"
    "order1 0 1 2 3 4 5 6\n"
    "order2 2 1 0 5 4 3 6\n"
    "completion1 1,3 2,3 2,4\n"
    "completion2 0,4 0,5 1,5\n"
    "coord 0 0 1/4\n"
    "coord 1 1/8 1/8\n"
    "coord 2 1/4 0\n"
    "coord 3 1 5/4\n"
    "coord 4 9/8 9/8\n"
    "coord 5 5/4 1\n"
    "coord 6 11/8 11/8\n"
)

# 8 vertices, two private a's with crossing Y-neighborhoods; every other
# condition holds, so recognition stalls on the nesting requirement.
NON_NESTED_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 7), (1, 2), (1, 3), (1, 5), (2, 3), (2, 4),
    (2, 5), (2, 7), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6), (5, 7),
    (6, 7),
]

# Audit-failing 6-vertex instance: every chord edge touches a forced node.
NO_CORE_EDGE_EDGES = [
    (0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (4, 5),
]


def test_g8_yes_certificate(g8):
    g, p = g8
    cert = recognize(g, p)
    assert cert.verdict == YES and cert.route == "sufficient"
    assert cert.reason == ""
    assert cert.order1 == (0, 1, 2, 4, 3, 5, 6, 7)
    assert cert.order2 == (3, 2, 0, 1, 6, 7, 5, 4)
    assert sorted(pairs_of(cert.completion1, g.n)) == [(2, 4), (3, 4), (3, 5)]
    assert sorted(pairs_of(cert.completion2, g.n)) == [(0, 3), (0, 5), (0, 6), (0, 7), (1, 6), (1, 7)]
    assert cert.embedding[3] == (Fraction(10, 9), Fraction(0))
    assert verify_certificate(g, cert).ok


def test_c4_yes_certificate(c4):
    g, p = c4
    cert = recognize(g, p)
    assert cert.verdict == YES and cert.route == "sufficient"
    assert cert.order1 == (0, 1, 2, 3)
    assert cert.order2 == (1, 0, 3, 2)
    assert verify_certificate(g, cert).ok


def test_recognize_is_deterministic(g8):
    g, p = g8
    assert emit_certificate(recognize(g, p)) == emit_certificate(recognize(g, p))


def test_odd_cycle_no(triangle6):
    g, p = triangle6
    cert = recognize(g, p)
    assert cert.verdict == NO and cert.route == "necessary"
    assert cert.reason == "coloring: odd chord-graph cycle (1,3) (0,5) (2,4)"
    assert cert.order1 is None and cert.embedding is None
    assert verify_certificate(g, cert).ok


def test_forced_conflict_no():
    g = build_graph(6, FORCED_CONFLICT_EDGES)
    p = validate_bab(g, [0, 1, 2], [1, 2, 3], [4, 5])
    cert = recognize(g, p)
    assert cert.verdict == NO and cert.route == "necessary"
    assert cert.reason == (
        "coloring: a forced-red and a forced-blue node share a color class"
        " ((0,5) (3,5))"
    )


def test_rigid_free_no():
    g = build_graph(7, RIGID_FAIL_EDGES)
    p = validate_bab(g, [0, 1, 2], [1, 2, 3], [4, 5, 6])
    cert = recognize(g, p)
    assert cert.verdict == NO and cert.route == "necessary"
    assert cert.reason == (
        "rigid-free: side a: rigid pair (1,4),(3,5) sits inside N_Y(0);"
        " side b: rigid pair (0,5),(2,6) sits inside N_Y(3)"
    )


def test_region_overshoot_recognized_yes():
    """The emptiness test lets this instance through; construction and the
    exact embedding confirm the verdict end to end."""
    g = build_graph(7, REGION_OVERSHOOT_EDGES)
    p = validate_bab(g, [0, 1, 2], [1, 2, 3], [4, 5, 6])
    cert = recognize(g, p)
    assert cert.verdict == YES and cert.route == "sufficient"
    assert cert.order1 == (0, 2, 1, 5, 6, 3, 4)
    assert cert.order2 == (1, 2, 3, 0, 4, 5, 6)
    assert verify_certificate(g, cert).ok


def test_recognize_runs_each_analysis_once(g8, monkeypatch):
    """The chord graph, its y-end table, its BFS, the forced sets, the
    coloring, the rigid-free report and the derived relations are computed
    once per instance, also when construction swaps the two sides of an
    instance with forced nodes. The rigid region sets are not computed at
    all: the rigid-free test needs no screen."""
    calls = Counter()
    bfs = ChordGraph.bfs

    def counted_bfs(self, root):
        calls["bfs"] += 1
        return bfs(self, root)

    monkeypatch.setattr(ChordGraph, "bfs", counted_bfs)
    for fn in (build_chord_graph, check_rigid_free, color_constrained, compute_ab_sets, derive_relations,
               rigid_region_sets, y_end_masks):
        def counted(*args, _fn=fn):
            calls[_fn.__name__] += 1
            return _fn(*args)
        for mod in (chords, necessary, orders, pipeline):
            if getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, counted)

    g = build_graph(7, REGION_OVERSHOOT_EDGES)
    swap = (g, validate_bab(g, [1, 2, 3], [0, 1, 2], [4, 5, 6]))
    for g, p in (g8, swap):
        calls.clear()
        cert = recognize(g, p)
        assert cert.verdict == YES
        assert calls == {"build_chord_graph": 1, "color_constrained": 1, "check_rigid_free": 1,
                         "compute_ab_sets": 1, "derive_relations": 1, "y_end_masks": 1, "bfs": 1}
        assert calls["rigid_region_sets"] == 0
    g, p = swap
    cg = build_chord_graph(g, p)
    nec = check_necessary(g, p, cg)
    # construction swaps the sides, and the coloring has forced nodes
    assert check_sufficient(g, p, cg, nec).orders is not None
    assert not nec.rigid_free.side_a_ok and any(nec.forced)


def test_recognize_builds_no_augmented_graph(g8, disconnected7):
    """Both YES routes realize each axis from G itself, and the
    certificates keep the bytes they had when the axes were realized on G
    plus each order's forced set."""
    assert emit_certificate(recognize(*g8)) == G8_GOLDEN
    cert = recognize(*disconnected7, allow_oracle=True, oracle_bound=7)
    assert cert.route == "oracle" and emit_certificate(cert) == D7_ORACLE_YES


def test_disconnected_chord_graph_undecided(disconnected7):
    g, p = disconnected7
    cert = recognize(g, p)
    assert cert.verdict == UNDECIDED and cert.route == "assumption"
    assert cert.reason == "chord graph splits into 3 non-isolated components"
    assert verify_certificate(g, cert).ok


def test_disconnected_resolved_by_oracle(disconnected7):
    g, p = disconnected7
    cert = recognize(g, p, allow_oracle=True, oracle_bound=7)
    assert cert.verdict == YES and cert.route == "oracle"
    assert cert.reason == "audit: chord graph splits into 3 non-isolated components"
    assert cert.order1 == (0, 1, 2, 3, 4, 5, 6)
    assert cert.order2 == (2, 1, 0, 5, 4, 3, 6)
    assert verify_certificate(g, cert).ok


def test_oracle_respects_bound(disconnected7):
    g, p = disconnected7
    cert = recognize(g, p, allow_oracle=True, oracle_bound=6)
    assert cert.verdict == UNDECIDED and cert.route == "assumption"


def test_nesting_failure_undecided():
    g = build_graph(8, NON_NESTED_EDGES)
    p = validate_bab(g, [0, 1, 2, 3], [2, 3, 4], [5, 6, 7])
    cert = recognize(g, p)
    assert cert.verdict == UNDECIDED and cert.route == "sufficiency"
    assert cert.reason == "sufficiency: nesting"
    cg = build_chord_graph(g, p)
    suff = check_sufficient(g, p, cg, check_necessary(g, p, cg))
    assert suff.reason == "nesting" and suff.orders is None
    cert = recognize(g, p, allow_oracle=True, oracle_bound=8)
    assert cert.verdict == YES and cert.route == "oracle"
    assert verify_certificate(g, cert).ok


def test_order_construction_cycle_is_undecided(g8, monkeypatch):
    """A constraint cycle met while building the orders is UNDECIDED on
    route ``sufficiency``, and the reason names the cycle."""
    def cycled(*args):
        raise OrderConstructionError((4, 5, 4))

    monkeypatch.setattr(orders, "build_order2", cycled)
    cert = recognize(*g8)
    assert cert.verdict == UNDECIDED and cert.route == "sufficiency"
    assert cert.reason == "sufficiency: order construction cycled through (4, 5, 4)"


def test_audit_failure_resolved_no_by_oracle():
    g = build_graph(6, NO_CORE_EDGE_EDGES)
    p = validate_bab(g, [0, 1, 2], [1, 2, 3], [4, 5])
    cert = recognize(g, p, allow_oracle=True)
    assert cert.verdict == NO and cert.route == "oracle"
    assert cert.reason == (
        "audit: no chord-graph edge avoids the forced-color nodes;"
        " no order pair with disjoint forced sets"
    )
    assert verify_certificate(g, cert).ok


def test_constructed_pair_with_meeting_forced_sets_is_undecided(monkeypatch):
    """A constructed pair whose forced sets meet never raises: with or
    without private b's it is UNDECIDED on route ``sufficiency``, or the
    oracle's certificate led by the same note."""
    note = "constructed orders have intersecting forced sets"
    two_sided = build_graph(6, [(0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5)])
    one_sided = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (3, 4)])
    for g, p in ((two_sided, validate_bab(two_sided, [0, 1, 2], [1, 2, 3], [4, 5])),
                 (one_sided, validate_bab(one_sided, [0, 1, 2], [1, 2], [3, 4]))):
        assert recognize(g, p).route == "sufficient"
        o = tuple(range(g.n))
        assert completion(g, o)
        monkeypatch.setattr(pipeline, "check_sufficient", lambda *args, o=o: SufficiencyVerdict(orders=(o, o)))
        cert = recognize(g, p)
        assert cert.verdict == UNDECIDED and cert.route == "sufficiency" and cert.reason == note
        cert = recognize(g, p, allow_oracle=True)
        assert cert.verdict == YES and cert.route == "oracle" and cert.reason == note
        assert verify_certificate(g, cert).ok
        monkeypatch.undo()


def test_verify_catches_tampering(g8):
    g, p = g8
    cert = recognize(g, p)

    bad_coords = list(cert.embedding)
    bad_coords[0] = (Fraction(5), Fraction(5))
    broken = replace(cert, embedding=tuple(bad_coords))
    chk = verify_certificate(g, broken)
    assert not chk.ok
    assert any("embedding fails" in s for s in chk.problems)

    swapped = replace(cert, order1=cert.order2, order2=cert.order1)
    chk = verify_certificate(g, swapped)
    assert not chk.ok
    assert any("forced set" in s for s in chk.problems)

    short = replace(cert, order1=cert.order1[:-1])
    assert not verify_certificate(g, short).ok

    for bad, problem in ((replace(cert, embedding=None), "embedding missing"),
                         (replace(cert, verdict="maybe"), "unknown verdict 'maybe'"),
                         (replace(cert, verdict=NO, reason=""), "refutation without a reason")):
        assert verify_certificate(g, bad).problems == (problem,)


def test_forged_forced_sets_match_the_set_reference(g8, disconnected7):
    """Forged forced sets on two YES certificates. In range (every pair
    0 <= u < v < n): a dropped pair, an extra non-edge, one pair in both
    sets, and each set's least pair added to the other give the exact
    check of the reference that compared frozensets, also after a trip
    through the text; a duplicate pair in the text parses to the
    certificate itself.
    Out of range, as certificate text: a reversed pair, (2, 2), (0, n),
    -1, an 18-digit id on the bulk path and a 4000-digit id on the token
    loop each raise one short ParseError naming the line, and a pair is
    never shifted into a mask before it is checked: a shift by 10**18 or
    by a 4000-digit id would raise. No forgery is accepted."""
    for (g, p), kw in ((g8, {}), (disconnected7, {"allow_oracle": True, "oracle_bound": 7})):
        cert = recognize(g, p, **kw)
        assert cert.verdict == YES and verify_certificate(g, cert).ok
        n, c1, c2 = g.n, pairs_of(cert.completion1, g.n), pairs_of(cert.completion2, g.n)
        u, v = min(c1)
        extra = min(e for e in combinations(range(n), 2) if not g.adjacent(*e) and e not in c1)
        forged = [
            replace(cert, completion1=mask_of_pairs(a, n), completion2=mask_of_pairs(b, n))
            for a, b in (
                (c1 - {(u, v)}, c2),
                (c1 | {extra}, c2),
                (c1, c2 | {(u, v)}),
                (c1 | {min(c2)}, c2 | {(u, v)}),
            )
        ]
        for bad in forged:
            want = verify_certificate_by_sets(g, bad)
            assert verify_certificate(g, bad) == want
            assert verify_certificate(g, parse_certificate(emit_certificate(bad))) == want
            assert not want.ok and want.problems[0].startswith("stored ")
            assert all("forced set" in x for x in want.problems)
        assert verify_certificate(g, forged[2]).problems[-1] == "forced sets intersect"
        assert verify_certificate(g, forged[3]).problems == (
            "stored first forced set differs from the order's",
            "stored second forced set differs from the order's",
            "forced sets intersect",
        )

        text = emit_certificate(cert)
        lines = text.splitlines()
        k = next(i for i, x in enumerate(lines) if x.startswith("completion1 "))
        body = lines[k][12:]
        assert parse_certificate(text.replace(body, f"{u},{v} " + body)) == cert
        bodies = [
            (body.replace(f"{u},{v}", f"{v},{u}", 1), True),
            (body + " 2,2", True),
            (body + f" 0,{n}", True),
            (body + " -1,2", False),
            (body + " 0," + "9" * 18, True),
            (body + " 0," + "9" * 4000, False),
        ]
        for forged_body, bulk in bodies:
            assert bool(_PAIR_LINE.fullmatch(forged_body)) == bulk
            with pytest.raises(ParseError) as caught:
                parse_certificate(text.replace(body, forged_body))
            message = str(caught.value)
            assert message.startswith(f"line {k + 1}: pair ") and len(message.encode()) < 300, message


def coprime_denominator_certificate():
    """(g, p, cert): a valid three-clique instance from integer points
    (unit 1000) and a YES certificate for it whose coordinates have
    pairwise-coprime denominators of about 1000 digits.

    Private a points lie on the chain (t, t), t in [0, 300]; shared points
    in [600, 1000] x [0, 1000]; private b points in [1301, 1600] x [0, 600];
    Y points in [700, 1700]^2, as the benchmark plants them. Sorting the
    points by x and by y gives two orders with disjoint forced sets, and
    ``embed`` realizes them in multiples of 1/(n+1). Every coordinate is
    then shrunk by the factor 1 - 1/(4(n+1)), which keeps neighbors within
    1 - 1/(4(n+1)) and non-neighbors at least 1 + 1/(2(n+1)) apart, and
    moved up to the next multiple of 1/q_v, q_v = (v+1)*N + 1 with
    N = 10**800 * (n+1)!. Two such q share no prime: it would divide
    (v-u)*N, hence N, hence 1.
    """
    rng = random.Random(0)
    a_size, shared_size, b_size, y_size = 30, 30, 30, 40
    pts = [(t, t) for t in sorted(rng.sample(range(301), a_size))]
    pts += [(rng.randint(600, 1000), rng.randint(0, 1000)) for _ in range(shared_size)]
    pts += [(rng.randint(1301, 1600), rng.randint(0, 600)) for _ in range(b_size)]
    pts += [(rng.randint(700, 1700), rng.randint(700, 1700)) for _ in range(y_size)]
    n = len(pts)
    g = build_graph(n, [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if abs(pts[u][0] - pts[v][0]) <= 1000 and abs(pts[u][1] - pts[v][1]) <= 1000
    ])
    shared_end, x_end = a_size + shared_size, a_size + shared_size + b_size
    p = validate_bab(g, range(shared_end), range(a_size, x_end), range(x_end, n))
    pair = make_order_pair(g, *(tuple(sorted(range(n), key=lambda v: pts[v][k])) for k in (0, 1)))
    grid = embed(g, pair)
    shrink = 1 - Fraction(1, 4 * (n + 1))
    big = 10**800 * math.factorial(n + 1)
    coords = []
    for v, xy in enumerate(grid):
        q = (v + 1) * big + 1
        coords.append(tuple(Fraction(math.floor(c * shrink * q) + 1, q) for c in xy))
    cert = pipeline.Certificate(YES, "sufficient", order1=pair.o1, order2=pair.o2,
                                completion1=pair.c1, completion2=pair.c2,
                                embedding=tuple(coords))
    return g, p, cert


def test_coprime_denominator_certificate_takes_the_fraction_path(monkeypatch):
    """n = 130, every coordinate with its own ~1000-digit denominator: the
    common denominator of an axis would have about 400,000 bits. Its lcm
    stops after two steps per axis, once it passes (n+1) times the largest
    denominator, and both axes are swept on their Fractions. The verdicts
    are the pair loop's: the certificate verifies, and moving a coordinate
    fails on the pair loop's first violation."""
    g, _, cert = coprime_denominator_certificate()
    assert g.n == 130
    coords = cert.embedding
    dens = [c.denominator for xy in coords for c in xy]
    assert min(dens).bit_length() > 3300 and math.gcd(coords[0][0].denominator, coords[1][0].denominator) == 1

    lcm_calls, sweeps = [], []
    lcm, kernel = embedding.lcm, embedding._within_unit
    monkeypatch.setattr(embedding, "lcm", lambda a, b: lcm_calls.append(1) or lcm(a, b))
    monkeypatch.setattr(
        embedding, "_within_unit", lambda vals, unit: sweeps.append((type(vals[0]), unit)) or kernel(vals, unit)
    )

    assert verify_embedding_by_pairs(g, cert.embedding).ok
    assert verify_certificate(g, cert) == pipeline.CertificateCheck(ok=True)
    assert len(lcm_calls) == 4 and sweeps == [(Fraction, 1)] * 2

    moved = list(coords)
    moved[17] = (coords[17][0] + 3, coords[17][1])
    bad = replace(cert, embedding=tuple(moved))
    want = verify_embedding_by_pairs(g, bad.embedding)
    assert not want.ok
    assert verify_certificate(g, bad).problems == (f"embedding fails on pair {want.violation}",)
    assert len(lcm_calls) == 8 and sweeps == [(Fraction, 1)] * 4
