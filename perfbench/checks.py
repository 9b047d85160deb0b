"""Independent re-checks of the package's answers.

Nothing here imports squaregeo. Instances and certificates are read from
their text, so a check sees exactly the bytes a user of the package sees.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm


@dataclass(frozen=True)
class Instance:
    """An instance as read from its text: blocks and one neighbor bitmask
    per vertex."""

    n: int
    x: frozenset[int]
    y: frozenset[int]
    adj: tuple[int, ...]


def bits(mask: int):
    """Set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def read_instance(text: str) -> Instance:
    n = 0
    blocks: dict[str, list[int]] = {}
    edges = []
    for line in text.splitlines()[1:]:
        key, _, rest = line.partition(" ")
        vals = [int(t) for t in rest.split()]
        if key == "n":
            n = vals[0]
        elif key == "edge":
            edges.append(vals)
        else:
            blocks[key] = vals
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Instance(
        n=n,
        x=frozenset(blocks["xa"]) | frozenset(blocks["xb"]),
        y=frozenset(blocks["y"]),
        adj=tuple(adj),
    )


def read_certificate(text: str) -> dict[str, str]:
    """Certificate fields by keyword; coord lines are gathered under
    "coord" as one "v x y" entry per line."""
    fields: dict[str, str] = {}
    coords = []
    for line in text.splitlines()[1:]:
        key, _, rest = line.partition(" ")
        if key == "coord":
            coords.append(rest)
        else:
            fields[key] = rest
    fields["coord"] = "\n".join(coords)
    return fields


def points_embed(adj, pts, unit) -> tuple[int, int] | None:
    """First pair (u, v) whose adjacency disagrees with max-metric distance
    at most ``unit``, or None when the points embed the graph exactly."""
    n = len(pts)
    for u in range(n):
        xu, yu = pts[u]
        nb = adj[u]
        for v in range(u + 1, n):
            xv, yv = pts[v]
            if (abs(xu - xv) <= unit and abs(yu - yv) <= unit) != bool(nb >> v & 1):
                return (u, v)
    return None


def coords_embed(inst: Instance, coord_lines: str) -> str:
    """Problem with the YES coordinates, or "" when they embed the graph.

    Coordinates are read as Fractions and scaled to a common denominator,
    so the check stays exact on integers.
    """
    coords: dict[int, tuple[Fraction, Fraction]] = {}
    for line in coord_lines.splitlines():
        v, x, y = line.split()
        coords[int(v)] = (Fraction(x), Fraction(y))
    if sorted(coords) != list(range(inst.n)):
        return "coordinates do not cover the vertices"
    fracs = [coords[v] for v in range(inst.n)]
    den = lcm(*(c.denominator for xy in fracs for c in xy)) if fracs else 1
    pts = [(x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
           for x, y in fracs]
    bad = points_embed(inst.adj, pts, den)
    return f"coordinates fail on pair {bad}" if bad else ""


_NODE = re.compile(r"\((\d+),(\d+)\)")


def witness_nodes(cert_text: str) -> list[tuple[int, int]]:
    """Nodes of the odd chord-graph cycle a NO certificate names, if any."""
    reason = read_certificate(cert_text).get("reason", "")
    if "odd chord-graph cycle" not in reason:
        return []
    return [(int(a), int(b)) for a, b in _NODE.findall(reason)]


def coord_denominators(cert_text: str) -> list[int]:
    coords = read_certificate(cert_text)["coord"]
    return [Fraction(t).denominator for line in coords.splitlines() for t in line.split()[1:]]


def odd_cycle_problem(inst: Instance, reason: str) -> str:
    """Problem with an odd chord-graph cycle witness, or "" when it holds.

    Each node is an X-Y non-edge (x, y). Consecutive nodes (x, y') and
    (x', y) must be the two chords of an induced 4-cycle x-y-y'-x': the
    edges xy, x'y', xx' and yy' are present and xy', x'y are absent.
    """
    nodes = [(int(a), int(b)) for a, b in _NODE.findall(reason)]
    if len(nodes) % 2 == 0:
        return f"cycle of even length {len(nodes)}"
    if len(set(nodes)) != len(nodes):
        return "cycle repeats a node"
    def edge(u: int, v: int) -> bool:
        return bool(inst.adj[u] >> v & 1)

    for x, y in nodes:
        if x not in inst.x or y not in inst.y or edge(x, y):
            return f"({x},{y}) is not an X-Y non-edge"
    for (x, yp), (xp, y) in zip(nodes, nodes[1:] + nodes[:1]):
        if not (edge(x, y) and edge(xp, yp) and edge(x, xp) and edge(y, yp)):
            return f"({x},{yp}) and ({xp},{y}) are not chords of one induced 4-cycle"
    return ""


def digest(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:12]
