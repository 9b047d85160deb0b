"""Every Bab instance on n vertices in one fixed order, and the digest of
the certificates ``recognize`` gives them.

The block sizes run a in 0..n-1, s in 1..n-1, b in 0..n-1 with
y = n-a-s-b >= 1, so X_a = 0..a+s-1, X_b = a..a+s+b-1 and Y is the rest.
The X-Y pairs are listed x-major, then y ascending, and each subset of
them, as the masks m ascending with bit i meaning pair i is an edge, is
added to the three cliques' edges. Private a's and b's are never joined.

    PYTHONPATH=src python tests/census.py N

prints the sha256 of census(N)'s concatenated certificate texts, the
instance count, the tally of (verdict, route), the tally of NO certificates
by refutation kind (the part of the reason before its colon: ``coloring``
or ``rigid-free``) and the number of YES certificates that fail to
re-verify.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from itertools import combinations

from squaregeo import NO, YES, build_graph, emit_certificate, recognize, validate_bab, verify_certificate
from squaregeo.graph import bits


def census(n: int):
    """Yield (g, p) for every instance of census(n), in the order above."""
    for a in range(n):
        for s in range(1, n):
            for b in range(n):
                if n - a - s - b < 1:
                    continue
                x = a + s + b
                xa, xb, ys = range(a + s), range(a, x), range(x, n)
                cliques = [e for part in (xa, xb, ys) for e in combinations(part, 2)]
                pairs = [(u, v) for u in range(x) for v in ys]
                for m in range(1 << len(pairs)):
                    g = build_graph(n, cliques + [pairs[i] for i in bits(m)])
                    yield g, validate_bab(g, xa, xb, ys)


def _run(n: int) -> tuple[str, int, Counter, Counter, int]:
    """``census_record``'s figures, with the NO tally by refutation kind
    after the route tally."""
    digest = hashlib.sha256()
    routes = Counter()
    kinds = Counter()
    count = unverified = 0
    for g, p in census(n):
        cert = recognize(g, p)
        digest.update(emit_certificate(cert).encode())
        routes[cert.verdict, cert.route] += 1
        count += 1
        if cert.verdict == NO:
            kinds[cert.reason.partition(":")[0]] += 1
        elif cert.verdict == YES and not verify_certificate(g, cert).ok:
            unverified += 1
    return digest.hexdigest(), count, routes, kinds, unverified


def census_record(n: int) -> tuple[str, int, Counter, int]:
    """``recognize`` with no oracle on every instance of census(n): the
    sha256 of the concatenated ``emit_certificate`` texts, the instance
    count, the (verdict, route) tally and the count of YES certificates
    that ``verify_certificate`` refuses."""
    hexdigest, count, routes, _, unverified = _run(n)
    return hexdigest, count, routes, unverified


if __name__ == "__main__":
    hexdigest, count, routes, kinds, unverified = _run(int(sys.argv[1]))
    print(hexdigest)
    print(f"instances {count}")
    for (verdict, route), k in sorted(routes.items()):
        print(f"{verdict} {route} {k}")
    for kind, k in sorted(kinds.items()):
        print(f"{NO} by {kind} {k}")
    print(f"unverified {unverified}")
