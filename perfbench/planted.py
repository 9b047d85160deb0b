"""Planted YES instances and certificates built without the package.

Nothing here imports squaregeo: the benchmark uses this code to produce
inputs and to re-check the package's answers, so it must not share the
package's implementation.

A planted instance comes from integer points in the plane with unit K.
Two points are adjacent iff |dx| <= K and |dy| <= K, so the points divided
by K are an exact max-metric embedding of the graph by construction. The
blocks are laid out so that the graph is a three-clique instance:

- private a points lie on the chain (t, t), t in [0, 300];
- shared points have x in [600, 1000] and y in [0, 1000];
- private b points have x in [1301, 1600] and y in [0, 600];
- Y points have x and y in [700, 1700].

Private a and private b points are more than K apart in x, so no edge
joins them. Vertex ids run over a, shared, b, then Y, as in the package's
random generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from checks import Instance, bits, points_embed

K = 1000
SWAP_TRIES = 20
INSTANCE_HEADER = "bab-instance v1"
CERTIFICATE_HEADER = "bab-certificate v1"

Point = tuple[int, int]


@dataclass(frozen=True)
class Planted:
    """A planted instance: its points and the graph they induce."""

    points: tuple[Point, ...]
    xa: tuple[int, ...]
    xb: tuple[int, ...]
    inst: Instance

    @property
    def n(self) -> int:
        return len(self.points)


def plant(sizes: tuple[int, int, int, int], seed: int) -> Planted:
    """Planted instance with block sizes (private a, shared, private b, Y)."""
    a_size, shared_size, b_size, y_size = sizes
    rng = random.Random(seed)
    pts: list[Point] = [(t, t) for t in sorted(rng.sample(range(0, 301), a_size))]
    pts += [(rng.randint(600, 1000), rng.randint(0, 1000)) for _ in range(shared_size)]
    pts += [(rng.randint(1301, 1600), rng.randint(0, 600)) for _ in range(b_size)]
    pts += [(rng.randint(700, 1700), rng.randint(700, 1700)) for _ in range(y_size)]
    n = len(pts)
    adj = [0] * n
    for u, (xu, yu) in enumerate(pts):
        for v in range(u + 1, n):
            xv, yv = pts[v]
            if abs(xu - xv) <= K and abs(yu - yv) <= K:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    shared_end = a_size + shared_size
    x_end = shared_end + b_size
    return Planted(
        points=tuple(pts),
        xa=tuple(range(shared_end)),
        xb=tuple(range(a_size, x_end)),
        inst=Instance(n=n, x=frozenset(range(x_end)), y=frozenset(range(x_end, n)),
                      adj=tuple(adj)),
    )


def instance_text(pl: Planted) -> str:
    """The instance in the package's text format, normalized."""
    out = [INSTANCE_HEADER, f"n {pl.n}"]
    out.append("xa " + " ".join(map(str, pl.xa)))
    out.append("xb " + " ".join(map(str, pl.xb)))
    out.append("y " + " ".join(map(str, sorted(pl.inst.y))))
    adj = pl.inst.adj
    out += [f"edge {u} {v}" for u in range(pl.n) for v in bits(adj[u] >> u + 1 << u + 1)]
    return "\n".join(out) + "\n"


def forced_set(adj, seq) -> frozenset[tuple[int, int]]:
    """Non-edges {w, z} with some edge u~v such that u comes at or before
    both and v at or after both in the order ``seq``."""
    pos = {v: i for i, v in enumerate(seq)}
    reach = []
    far = -1
    for v in seq:
        far = max([far, pos[v]] + [pos[u] for u in bits(adj[v])])
        reach.append(far)
    out = set()
    for i, w in enumerate(seq):
        for z in seq[i + 1:reach[i] + 1]:
            if not adj[w] >> z & 1:
                out.add((min(w, z), max(w, z)))
    return frozenset(out)


@dataclass(frozen=True)
class StoredCertificate:
    """A certificate built without the package, with the verdict the
    benchmark expects ``verify_certificate`` to return for it."""

    text: str
    valid: bool


def _pairs_line(key: str, pairs) -> str:
    body = " ".join(f"{u},{v}" for u, v in sorted(pairs))
    return f"{key} {body}" if body else key


def certificate(pl: Planted, corrupt: str = "", seed: int = 0) -> StoredCertificate:
    """YES certificate from the planted points: the orders sort by (x, id)
    and (y, id), the forced sets are recomputed here, and the coordinates
    are the points divided by K.

    ``corrupt`` keeps the text well formed but breaks it: "move" shifts one
    coordinate by 3 units, "swap" exchanges two entries of the first order
    after its forced set was computed. ``valid`` is the benchmark's own
    verdict on the result; unmoved points embed the graph by construction.
    """
    n = pl.n
    adj = pl.inst.adj
    rng = random.Random(seed)
    o1 = sorted(range(n), key=lambda v: (pl.points[v][0], v))
    o2 = sorted(range(n), key=lambda v: (pl.points[v][1], v))
    c1 = forced_set(adj, o1)
    c2 = forced_set(adj, o2)
    pts = list(pl.points)
    valid = not c1 & c2
    if corrupt == "move":
        v = rng.randrange(n)
        pts[v] = (pts[v][0] + 3 * K, pts[v][1])
        valid = valid and points_embed(adj, pts, K) is None
    elif corrupt == "swap":
        # Retry a few swaps: exchanging two vertices can leave the forced
        # set as it was, and then the certificate would still be valid.
        for _ in range(SWAP_TRIES):
            i, j = rng.sample(range(n), 2)
            o1[i], o1[j] = o1[j], o1[i]
            if forced_set(adj, o1) != c1:
                break
            o1[i], o1[j] = o1[j], o1[i]
        valid = valid and forced_set(adj, o1) == c1
    elif corrupt:
        raise ValueError(f"unknown corruption {corrupt!r}")
    out = [CERTIFICATE_HEADER, "verdict yes", "route planted"]
    out.append("order1 " + " ".join(map(str, o1)))
    out.append("order2 " + " ".join(map(str, o2)))
    out.append(_pairs_line("completion1", c1))
    out.append(_pairs_line("completion2", c2))
    out += [f"coord {v} {Fraction(x, K)} {Fraction(y, K)}" for v, (x, y) in enumerate(pts)]
    return StoredCertificate(text="\n".join(out) + "\n", valid=valid)
