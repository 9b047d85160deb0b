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


# Criterion 2's corpus: seed -> the index of the first of its first 200
# ``bab_draws`` that meets the sufficient conditions, for the 500 such seeds
# among 0-746 in seed order (the other 247 have none). Recorded by replaying
# the draws with ``meets_sufficient_conditions``, so the fixture generates
# each seed's draws only up to the stored one and tests that one alone.
SUFFICIENT_DRAWS = {
    0: 149, 1: 16, 3: 66, 4: 10, 6: 33, 11: 1, 12: 24, 13: 64, 14: 156, 15: 139, 16: 25, 17: 24,
    20: 189, 21: 55, 23: 57, 24: 148, 25: 84, 26: 8, 31: 23, 32: 40, 33: 16, 34: 29, 35: 118,
    36: 17, 37: 84, 40: 73, 41: 26, 42: 14, 43: 22, 44: 2, 45: 26, 46: 11, 47: 47, 50: 1,
    51: 28, 52: 49, 53: 28, 55: 70, 56: 2, 57: 89, 60: 106, 61: 9, 62: 51, 63: 15, 64: 11,
    65: 100, 66: 6, 67: 121, 71: 85, 72: 86, 74: 15, 76: 27, 79: 8, 80: 171, 81: 111, 82: 5,
    83: 12, 84: 94, 86: 50, 87: 89, 90: 16, 91: 0, 93: 5, 94: 71, 96: 10, 99: 175, 101: 34,
    102: 68, 103: 131, 104: 71, 105: 19, 106: 1, 107: 23, 110: 29, 111: 19, 112: 2, 113: 29,
    114: 34, 115: 100, 116: 41, 120: 59, 121: 22, 123: 28, 124: 76, 125: 92, 126: 3, 128: 126,
    130: 29, 131: 33, 132: 52, 133: 5, 134: 89, 136: 1, 137: 86, 140: 164, 141: 28, 142: 37,
    143: 88, 144: 10, 145: 27, 146: 8, 147: 23, 150: 11, 151: 3, 152: 134, 153: 43, 154: 183,
    156: 19, 160: 89, 161: 14, 162: 91, 163: 23, 164: 10, 165: 33, 166: 0, 167: 110, 170: 112,
    171: 7, 172: 34, 173: 136, 174: 12, 175: 156, 176: 34, 177: 180, 180: 12, 181: 63, 182: 16,
    183: 29, 184: 74, 185: 6, 186: 6, 187: 108, 190: 113, 191: 4, 192: 199, 193: 1, 194: 47,
    196: 7, 198: 99, 200: 116, 201: 17, 202: 173, 203: 110, 204: 45, 206: 14, 210: 122, 211: 71,
    212: 75, 214: 17, 215: 79, 216: 1, 220: 4, 221: 3, 222: 139, 223: 48, 224: 6, 226: 14,
    230: 121, 231: 13, 232: 179, 233: 112, 234: 3, 236: 5, 237: 4, 240: 113, 241: 48, 242: 25,
    244: 46, 246: 39, 247: 32, 250: 6, 251: 8, 252: 31, 253: 34, 255: 3, 256: 8, 260: 23,
    261: 8, 262: 37, 263: 161, 264: 29, 266: 2, 267: 76, 270: 5, 271: 41, 272: 11, 274: 41,
    275: 56, 276: 44, 277: 26, 280: 17, 281: 10, 282: 18, 283: 45, 284: 7, 285: 170, 286: 27,
    287: 28, 290: 7, 291: 1, 293: 9, 294: 133, 296: 21, 297: 57, 300: 187, 301: 0, 302: 126,
    304: 14, 306: 9, 307: 6, 310: 62, 311: 85, 312: 59, 313: 30, 314: 20, 315: 15, 316: 8,
    320: 40, 321: 7, 322: 34, 323: 61, 324: 16, 325: 78, 326: 27, 331: 26, 333: 175, 334: 15,
    336: 0, 337: 60, 340: 119, 341: 21, 342: 25, 343: 104, 344: 26, 345: 192, 346: 103, 347: 31,
    348: 48, 350: 14, 351: 13, 352: 182, 353: 26, 354: 51, 356: 3, 360: 149, 361: 4, 363: 19,
    364: 42, 366: 7, 367: 134, 370: 106, 371: 36, 372: 82, 373: 149, 374: 4, 375: 108, 376: 19,
    377: 12, 380: 10, 381: 12, 382: 17, 383: 10, 384: 5, 386: 6, 387: 26, 390: 88, 391: 2,
    392: 157, 393: 0, 394: 85, 395: 41, 396: 1, 401: 3, 402: 16, 403: 150, 404: 7, 406: 19,
    410: 81, 412: 81, 413: 62, 414: 8, 416: 16, 417: 107, 420: 10, 421: 14, 422: 17, 423: 0,
    424: 52, 426: 2, 430: 86, 431: 7, 432: 67, 433: 47, 434: 23, 436: 10, 437: 15, 440: 187,
    441: 36, 442: 18, 443: 169, 444: 39, 445: 184, 446: 40, 447: 91, 450: 5, 452: 23, 453: 116,
    454: 126, 456: 18, 457: 35, 461: 27, 462: 87, 463: 40, 464: 1, 466: 7, 467: 175, 470: 20,
    471: 13, 472: 29, 474: 7, 475: 131, 476: 26, 477: 37, 480: 137, 481: 16, 482: 149, 483: 16,
    484: 166, 485: 12, 486: 0, 491: 3, 492: 85, 493: 75, 494: 13, 496: 43, 501: 4, 502: 57,
    503: 39, 504: 10, 506: 20, 510: 189, 511: 3, 512: 18, 513: 114, 514: 168, 516: 7, 517: 17,
    520: 10, 521: 17, 523: 33, 524: 63, 525: 70, 526: 2, 530: 29, 531: 7, 532: 90, 533: 5,
    534: 14, 536: 3, 537: 111, 540: 64, 541: 17, 542: 97, 543: 136, 544: 11, 546: 2, 547: 57,
    550: 82, 551: 120, 552: 156, 553: 71, 555: 39, 556: 10, 557: 127, 560: 20, 561: 11, 563: 31,
    564: 40, 566: 1, 571: 10, 572: 51, 573: 146, 574: 7, 575: 155, 576: 50, 577: 50, 580: 18,
    581: 153, 582: 112, 583: 6, 584: 90, 585: 81, 586: 18, 587: 149, 590: 97, 591: 21, 592: 47,
    593: 18, 594: 64, 595: 137, 596: 8, 599: 136, 601: 1, 602: 27, 603: 70, 604: 11, 606: 13,
    607: 46, 610: 108, 611: 14, 612: 6, 613: 32, 614: 36, 615: 161, 616: 14, 620: 101, 621: 32,
    622: 165, 623: 36, 624: 153, 626: 27, 631: 5, 632: 10, 633: 150, 634: 27, 635: 67, 636: 21,
    639: 172, 640: 180, 641: 41, 642: 135, 644: 4, 646: 38, 647: 28, 650: 42, 651: 6, 652: 42,
    653: 1, 654: 157, 656: 4, 657: 52, 660: 48, 661: 4, 662: 199, 663: 35, 664: 24, 666: 22,
    670: 5, 671: 58, 672: 3, 674: 56, 676: 12, 677: 102, 680: 50, 681: 67, 682: 180, 683: 14,
    684: 5, 685: 30, 686: 23, 691: 38, 693: 182, 694: 58, 696: 19, 700: 167, 701: 6, 702: 133,
    703: 30, 704: 0, 706: 0, 707: 40, 710: 86, 711: 154, 712: 29, 713: 83, 714: 11, 715: 148,
    716: 15, 717: 50, 720: 151, 721: 55, 723: 22, 724: 84, 726: 1, 727: 19, 730: 156, 731: 1,
    732: 70, 733: 35, 734: 67, 736: 12, 737: 10, 739: 173, 740: 69, 741: 27, 742: 47, 743: 143,
    744: 177, 745: 4, 746: 16,
}


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
    """The 500 generated instances of criterion 2, each paired with its
    recognition outcome or the exception it raised. Each is the stored draw
    of its seed (``SUFFICIENT_DRAWS``), and must still meet the sufficient
    conditions (shared block of two or more, at most 12 vertices)."""
    out = []
    for seed, index in SUFFICIENT_DRAWS.items():
        shape = SUFFICIENT_SHAPES[seed % len(SUFFICIENT_SHAPES)]
        g, p = next(islice(bab_draws(shape, _dens(seed), seed), index, None))
        assert meets_sufficient_conditions(g, p), f"seed {seed} draw {index}"
        try:
            cert = recognize(g, p)
            out.append((g, p, cert, None))
        except Exception as exc:
            out.append((g, p, None, exc))
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
    """On every criterion-2 shape, on shapes with no private a or no
    private b, and on one n=200 shape, the first of ``bab_draws`` is the
    instance ``generate_bab`` returns for the same request, at the
    criterion's densities and at 0 and 1."""
    for shape in SUFFICIENT_SHAPES + [(0, 2, 2, 3), (2, 2, 0, 3), (60, 20, 60, 60)]:
        for seed in range(10):
            for density in (_dens(seed), 0.0, 1.0):
                first = next(bab_draws(shape, density, seed))
                assert emit_instance(*first) == emit_instance(*generate_bab(shape, density, seed))


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
