"""Acceptance gate: eight checks over enumerated, seeded and generated corpora.

Each criterion test prints one CRITERION line (PASS or FAIL with a short
tally) before asserting, so the captured output names the criterion that
broke.
"""

import hashlib
import random
import time
from itertools import islice

import pytest

from squaregeo import (
    build_chord_graph,
    check_necessary,
    emit_certificate,
    emit_instance,
    generate_bab,
    parse_certificate,
    recognize,
    verify_certificate,
)
from squaregeo.embedding import completion, make_order_pair
from squaregeo.necessary import NecessaryStatus

from conftest import enumerate_bab_instances
from oracles import (
    bab_draws,
    bipartite_by_bfs,
    brute_force_orders_by_completion,
    chord_distribution,
    completion_closure_violations,
    linf_embedding_report,
    meets_sufficient_conditions,
    pairs_of,
)

ENUMERATED_COUNTS = {2: 2, 3: 16, 4: 104, 5: 752}

SHAPES6 = [
    (1, 1, 1, 3), (1, 2, 1, 2), (2, 1, 1, 2), (1, 1, 2, 2), (2, 2, 1, 1),
    (1, 2, 2, 1), (2, 1, 2, 1), (1, 3, 1, 1), (3, 1, 1, 1), (1, 1, 3, 1),
]

SUFFICIENT_SHAPES = [
    (1, 2, 1, 2), (1, 2, 1, 3), (2, 2, 1, 3), (1, 2, 2, 4), (1, 3, 2, 3),
    (2, 2, 2, 4), (1, 4, 1, 4), (2, 3, 2, 4), (3, 2, 3, 4), (2, 2, 3, 5),
]


def _dens(seed: int) -> float:
    return 0.2 + 0.6 * ((seed * 37) % 100) / 100


@pytest.fixture(scope="session")
def decided_corpus():
    """Records (g, p, truth, cert, nec) for every enumerated instance on
    up to 5 vertices plus 1000 seeded 6-vertex instances. ``truth`` is the
    reference exhaustive order search in ``oracles``, independent of the
    package's; ``cert`` allows the package's search as fallback, so every
    verdict in here is definitive."""
    instances = []
    for n, want in sorted(ENUMERATED_COUNTS.items()):
        batch = list(enumerate_bab_instances(n))
        assert len(batch) == want
        instances.extend(batch)
    for shape in SHAPES6:
        for seed in range(100):
            instances.append(generate_bab(shape, _dens(seed), seed))
    records = []
    for g, p in instances:
        truth = brute_force_orders_by_completion(g, 6) is not None
        cert = recognize(g, p, allow_oracle=True, oracle_bound=6)
        nec = check_necessary(g, p, build_chord_graph(g, p))
        records.append((g, p, truth, cert, nec))
    return records


@pytest.fixture(scope="session")
def sufficient_certs():
    """At least 500 generated instances that meet the sufficient conditions
    (shared block of two or more, at most 12 vertices), each paired with
    its recognition outcome or the exception it raised. Each seed gives
    the first of its first 200 draws that meets them, if one does."""
    out = []
    seed = 0
    while len(out) < 500 and seed < 5000:
        shape = SUFFICIENT_SHAPES[seed % len(SUFFICIENT_SHAPES)]
        draws = islice(bab_draws(shape, _dens(seed), seed), 200)
        found = next((gp for gp in draws if meets_sufficient_conditions(*gp)), None)
        if found is None:
            seed += 1
            continue
        g, p = found
        try:
            cert = recognize(g, p)
            out.append((g, p, cert, None))
        except Exception as exc:
            out.append((g, p, None, exc))
        seed += 1
    return out


def test_criterion_1_oracle_agreement(decided_corpus):
    disagreements = []
    for g, p, truth, cert, _ in decided_corpus:
        if cert.verdict not in ("yes", "no") or (cert.verdict == "yes") != truth:
            disagreements.append((g.edges(), cert.verdict, truth))
    enumerated = sum(ENUMERATED_COUNTS.values())
    seeded = len(decided_corpus) - enumerated
    line = (
        f"oracle agreement on {enumerated} enumerated and {seeded} seeded"
        f" instances, {len(disagreements)} disagreements"
    )
    print(f"CRITERION 1: {'PASS' if not disagreements else 'FAIL'} {line}")
    assert seeded >= 1000
    assert not disagreements, disagreements[:3]


def test_criterion_2_constructions_verify(sufficient_certs):
    failures = []
    for g, p, cert, exc in sufficient_certs:
        if exc is not None:
            failures.append((g.edges(), repr(exc)))
        elif cert.verdict != "yes" or cert.route != "sufficient":
            failures.append((g.edges(), cert.verdict, cert.route, cert.reason))
        elif not verify_certificate(g, cert).ok:
            failures.append((g.edges(), verify_certificate(g, cert).problems))
    line = (
        f"{len(sufficient_certs)} instances meeting the sufficient conditions recognized and"
        f" re-verified, {len(failures)} failures"
    )
    print(f"CRITERION 2: {'PASS' if not failures else 'FAIL'} {line}")
    assert len(sufficient_certs) >= 500
    assert not failures, failures[:3]


def test_criterion_2_corpus_is_the_recorded_one(sufficient_certs):
    """The 500 instances, in seed order, are those the generator's filter
    "sufficient" selected before the filter left the package: the sha256
    of their texts was recorded then."""
    texts = "".join(emit_instance(g, p) for g, p, _, _ in sufficient_certs)
    assert len(sufficient_certs) == 500
    assert hashlib.sha256(texts.encode()).hexdigest() == (
        "b01d79f815deaad5f4c15d9ac85c72226cf6cf373e8ae5cbfd290852e5c69d29"
    )


def test_first_draw_is_the_generators():
    """On every criterion-2 shape, the first of ``bab_draws`` is the
    instance ``generate_bab`` returns for the same request."""
    for shape in SUFFICIENT_SHAPES:
        for seed in range(10):
            first = next(bab_draws(shape, _dens(seed), seed))
            assert emit_instance(*first) == emit_instance(*generate_bab(shape, _dens(seed), seed))


def test_criterion_2_completion_lines_are_the_sorted_pairs(sufficient_certs):
    """On every YES certificate of criterion 2, ``emit_certificate`` writes
    the completion lines from the pair masks' rows exactly as formatting
    their sorted pairs would, and parsing the text gives the certificate
    back, which emits the same bytes."""
    yes = [(g, cert) for g, _, cert, _ in sufficient_certs if cert is not None and cert.verdict == "yes"]
    assert len(yes) >= 500
    for g, cert in yes:
        text = emit_certificate(cert)
        lines = text.splitlines()
        for key, mask in (("completion1", cert.completion1), ("completion2", cert.completion2)):
            assert " ".join([key] + [f"{u},{v}" for u, v in sorted(pairs_of(mask, g.n))]) in lines
        back = parse_certificate(text)
        assert back == cert and emit_certificate(back) == text


def test_criterion_3_refutations_are_sound(decided_corpus):
    unsound = []
    refuted = 0
    for g, p, truth, _, nec in decided_corpus:
        if nec.status is NecessaryStatus.FAIL:
            refuted += 1
            if truth:
                unsound.append(g.edges())
    line = f"{refuted} refutations against the search, {len(unsound)} unsound"
    print(f"CRITERION 3: {'PASS' if not unsound else 'FAIL'} {line}")
    assert refuted > 0
    assert not unsound, unsound[:3]


def test_criterion_4_chords_split_and_bipartite(decided_corpus, sufficient_certs):
    bad = []
    pairs = 0
    for g, p, truth, cert, _ in decided_corpus:
        if not truth:
            continue
        pairs += 1
        pair = make_order_pair(g, cert.order1, cert.order2)
        if not pair.valid or not chord_distribution(g, p, pair).ok:
            bad.append(("split", g.edges()))
        cg = build_chord_graph(g, p)
        masks = [0] * len(cg.nodes)
        for i, j in cg.edges():
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        if not bipartite_by_bfs(masks):
            bad.append(("bipartite", g.edges()))
    for g, p, cert, exc in sufficient_certs:
        if exc is not None or cert.verdict != "yes":
            continue
        pairs += 1
        pair = make_order_pair(g, cert.order1, cert.order2)
        if not pair.valid or not chord_distribution(g, p, pair).ok:
            bad.append(("split", g.edges()))
    line = f"{pairs} order pairs checked, {len(bad)} split or parity faults"
    print(f"CRITERION 4: {'PASS' if not bad else 'FAIL'} {line}")
    assert not bad, bad[:3]


def test_criterion_5_closure_facts(decided_corpus, sufficient_certs):
    violations = []
    audited = 0

    def audit(g, p, seq):
        nonlocal audited
        audited += 1
        comp = pairs_of(completion(g, seq), g.n)
        notes = completion_closure_violations(g, seq, comp, p)
        if notes:
            violations.append((g.edges(), seq, notes[:2]))

    for idx, (g, p, _, cert, _) in enumerate(decided_corpus):
        if cert.verdict == "yes":
            audit(g, p, cert.order1)
            audit(g, p, cert.order2)
        shuffled = list(range(g.n))
        random.Random(idx).shuffle(shuffled)
        audit(g, p, tuple(shuffled))
    for g, p, cert, exc in sufficient_certs:
        if exc is None and cert.verdict == "yes":
            audit(g, p, cert.order1)
            audit(g, p, cert.order2)
    line = f"{audited} completions audited, {len(violations)} closure violations"
    print(f"CRITERION 5: {'PASS' if not violations else 'FAIL'} {line}")
    assert not violations, violations[:3]


def test_criterion_6_exact_distance_audit(decided_corpus, sufficient_certs):
    mismatched = []
    boundary = 0
    audited = 0
    certs = [(g, cert) for g, _, _, cert, _ in decided_corpus]
    certs += [(g, cert) for g, _, cert, exc in sufficient_certs if exc is None]
    for g, cert in certs:
        if cert is None or cert.verdict != "yes":
            continue
        audited += 1
        bad, near = linf_embedding_report(g, cert.embedding)
        boundary += near
        if bad:
            mismatched.append((g.edges(), bad[:2]))
    line = (
        f"{audited} embeddings audited exactly, {len(mismatched)} mismatches,"
        f" {boundary} boundary pairs"
    )
    print(f"CRITERION 6: {'PASS' if not mismatched and boundary else 'FAIL'} {line}")
    assert not mismatched, mismatched[:3]
    assert boundary >= 1


def test_criterion_7_chord_graph_scaling():
    timings = {}
    for n, sizes in ((100, (30, 10, 30, 30)), (200, (60, 20, 60, 60))):
        g, p = generate_bab(sizes, 0.5, 0)
        assert g.n == n
        best = min(
            _timed(build_chord_graph, g, p) for _ in range(5)
        )
        timings[n] = best
    ratio = timings[200] / max(timings[100], 1e-9)
    ok = timings[100] <= 10.0 and timings[200] <= 30.0 and ratio <= 20.0
    line = (
        f"chord graph build {timings[100]:.3f}s at n=100,"
        f" {timings[200]:.3f}s at n=200, ratio {ratio:.1f}"
    )
    print(f"CRITERION 7: {'PASS' if ok else 'FAIL'} {line}")
    assert timings[100] <= 10.0
    assert timings[200] <= 30.0
    assert ratio <= 20.0


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


C4_GOLDEN = (
    "bab-certificate v1\n"
    "verdict yes\n"
    "route sufficient\n"
    "order1 0 1 2 3\n"
    "order2 1 0 3 2\n"
    "completion1 1,2\n"
    "completion2 0,3\n"
    "coord 0 0 1\n"
    "coord 1 1 0\n"
    "coord 2 1 6/5\n"
    "coord 3 6/5 1\n"
)

G8_GOLDEN = (
    "bab-certificate v1\n"
    "verdict yes\n"
    "route sufficient\n"
    "order1 0 1 2 4 3 5 6 7\n"
    "order2 3 2 0 1 6 7 5 4\n"
    "completion1 2,4 3,4 3,5\n"
    "completion2 0,3 0,5 0,6 0,7 1,6 1,7\n"
    "coord 0 0 1\n"
    "coord 1 1/9 1\n"
    "coord 2 1 1/9\n"
    "coord 3 10/9 0\n"
    "coord 4 1 11/9\n"
    "coord 5 10/9 10/9\n"
    "coord 6 11/9 1\n"
    "coord 7 11/9 1\n"
)


def test_criterion_8_golden_certificates(c4, g8):
    got_c4 = emit_certificate(recognize(*c4))
    got_g8 = emit_certificate(recognize(*g8))
    ok = got_c4 == C4_GOLDEN and got_g8 == G8_GOLDEN
    print(f"CRITERION 8: {'PASS' if ok else 'FAIL'} two golden certificates byte-compared")
    assert got_c4 == C4_GOLDEN
    assert got_g8 == G8_GOLDEN
