"""Recognition pipeline: audit, refute, construct, or fall back to search.

The decision flow for an instance (g, p):

1. audit the structural preconditions; failing them ends in UNDECIDED
   unless the brute-force search may run,
2. test the necessary conditions; a refutation is a definitive NO,
3. test the sufficient conditions and build the two orders; success is a
   YES carrying orders, forced sets and an exact embedding,
4. otherwise UNDECIDED, or the verdict of the exhaustive search when it
   is allowed and the instance is small enough.

Every YES certificate re-verifies from its own fields alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chords import build_chord_graph
from .embedding import (
    ORACLE_BOUND,
    OrderPair,
    brute_force_orders,
    completion,
    embed,
    make_order_pair,
    verify_embedding,
)
from .graph import BabPartition, Graph
from .necessary import NecessaryStatus, check_necessary
from .orders import check_sufficient

YES = "yes"
NO = "no"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class Certificate:
    """Outcome of recognition plus everything needed to re-check it.

    ``route`` names the deciding step: "sufficient" or "oracle" for YES,
    "necessary" or "oracle" for NO, "assumption" or "sufficiency" for
    UNDECIDED. It holds exactly what ``emit_certificate`` writes; forced
    sets are pair masks over the len(order1) vertices, as in ``completion``.
    """

    verdict: str
    route: str
    reason: str = ""
    order1: tuple[int, ...] | None = None
    order2: tuple[int, ...] | None = None
    completion1: int | None = None
    completion2: int | None = None
    embedding: tuple[tuple[Fraction, Fraction], ...] | None = None


def _yes_certificate(g: Graph, pair: OrderPair, route: str, reason: str = "") -> Certificate:
    """A YES certificate: the pair's orders, forced sets and embedding."""
    return Certificate(YES, route, reason, order1=pair.o1, order2=pair.o2,
                       completion1=pair.c1, completion2=pair.c2,
                       embedding=embed(g, pair))


def oracle_certificate(g: Graph, bound: int, note: str = "") -> Certificate:
    """The exhaustive search's verdict on g as a certificate; a non-empty
    ``note`` leads its reason."""
    found = brute_force_orders(g, bound)
    if found is None:
        reason = "no order pair with disjoint forced sets"
        if note:
            reason = f"{note}; {reason}"
        return Certificate(verdict=NO, route="oracle", reason=reason)
    return _yes_certificate(g, make_order_pair(g, *found), "oracle", note)


def recognize(
    g: Graph,
    p: BabPartition,
    allow_oracle: bool = False,
    oracle_bound: int = ORACLE_BOUND,
) -> Certificate:
    """Decide whether (g, p) embeds in the plane under the max metric."""
    cg = build_chord_graph(g, p)
    nec = check_necessary(g, p, cg)
    if nec.status is NecessaryStatus.OUT_OF_SCOPE:
        if allow_oracle and g.n <= oracle_bound:
            return oracle_certificate(g, oracle_bound, note=f"audit: {nec.reason}")
        return Certificate(verdict=UNDECIDED, route="assumption", reason=nec.reason)
    if nec.status is NecessaryStatus.FAIL:
        return Certificate(verdict=NO, route="necessary", reason=nec.reason)

    suff = check_sufficient(g, p, cg, nec)
    if suff.orders is not None:
        pair = make_order_pair(g, *suff.orders)
        if pair.valid:
            return _yes_certificate(g, pair, "sufficient")
        note = "constructed orders have intersecting forced sets"
    else:
        note = f"sufficiency: {suff.reason}"

    if allow_oracle and g.n <= oracle_bound:
        return oracle_certificate(g, oracle_bound, note=note)
    return Certificate(verdict=UNDECIDED, route="sufficiency", reason=note)


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    problems: tuple[str, ...] = ()


def verify_certificate(g: Graph, cert: Certificate) -> CertificateCheck:
    """Re-check a certificate from its own fields.

    For YES: both orders are permutations of V, there is one coordinate
    pair per vertex, the stored forced sets match the ones the orders
    induce, they are disjoint, and the coordinates pass the exact adjacency
    test. Forced sets are pair masks, compared with their orders' masks
    and tested for disjointness with one AND, as ``OrderPair.valid`` does.
    A malformed field is reported as a problem.
    NO and UNDECIDED certificates only need a consistent shape.
    """
    problems = []
    if cert.verdict not in (YES, NO, UNDECIDED):
        problems.append(f"unknown verdict {cert.verdict!r}")
    if cert.verdict != YES:
        if cert.verdict == NO and not cert.reason:
            problems.append("refutation without a reason")
        return CertificateCheck(ok=not problems, problems=tuple(problems))

    want = frozenset(range(g.n))
    for name, o in (("order1", cert.order1), ("order2", cert.order2)):
        if o is None:
            problems.append(f"{name} missing")
        elif frozenset(o) != want or len(o) != g.n:
            problems.append(f"{name} is not a permutation of the vertices")
    if cert.completion1 is None or cert.completion2 is None:
        problems.append("forced sets missing")
    if cert.embedding is None:
        problems.append("embedding missing")
    elif len(cert.embedding) != g.n:
        problems.append(f"embedding has {len(cert.embedding)} coordinates for {g.n} vertices")
    if problems:
        return CertificateCheck(ok=False, problems=tuple(problems))

    for name, o, stored in (("first", cert.order1, cert.completion1),
                            ("second", cert.order2, cert.completion2)):
        if stored != completion(g, o):
            problems.append(f"stored {name} forced set differs from the order's")
    if cert.completion1 & cert.completion2:
        problems.append("forced sets intersect")
    check = verify_embedding(g, cert.embedding)
    if not check.ok:
        problems.append(f"embedding fails on pair {check.violation}")
    return CertificateCheck(ok=not problems, problems=tuple(problems))
