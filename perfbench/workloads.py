"""The four workloads: how each builds its corpus, runs one operation and
re-checks the result.

A corpus is a tuple of ``Item``s built from the workload seed alone. The
package only ever receives the item texts. Everything a check needs is
computed here without the package: from the texts, or for planted
instances from the points they were made from.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from types import ModuleType

from checks import Instance, coords_embed, digest, odd_cycle_problem, read_certificate, read_instance
from planted import certificate, instance_text, plant

ORACLE_BOUND = 7
ROUTES = ("yes-sufficient", "yes-oracle", "no-necessary", "no-oracle",
          "undecided-assumption", "undecided-sufficiency")

# refute-random: shapes (private a, shared, private b, Y), n = 18..30, one
# of each per group.
REFUTE_SHAPES = ((3, 4, 3, 8), (3, 6, 3, 10), (4, 6, 4, 10), (4, 7, 4, 12), (5, 8, 5, 12))
REFUTE_GROUPS = 40

# Planted sizes n per group. Block shares of n: 15% private a, 20% shared,
# 15% private b, the rest Y. Costs grow with n, so the weights put p50 and
# p90 inside the cost band of one size rather than between two bands,
# where they would jump with the mix. On construct-planted about a third
# of the instances leave early (UNDECIDED at the audit), so p50 falls in
# the band of full constructions at n=70 and p90 in the one at n=110.
CONSTRUCT_SIZES = (70, 70, 110)
CONSTRUCT_GROUPS = 100
VERIFY_SIZES = (70, 80, 90, 100, 110, 110, 110, 140, 170, 200, 200)
VERIFY_GROUPS = 7

ORACLE_PASSES = 2


@dataclass(frozen=True)
class Item:
    """One operation's input. ``cert`` and ``valid`` are set on
    verify-stored only: the stored certificate and the verdict the
    benchmark's own check gives it."""

    text: str
    inst: Instance
    planted: bool = False
    cert: str = ""
    valid: bool = True

    @property
    def key(self) -> str:
        return digest(self.text, self.cert)


@dataclass
class Outcome:
    """What one operation returned, as the checks and tallies need it."""

    out: str                 # emitted certificate or verification result
    route: str               # "<verdict>-<route>", or "accept"/"reject"
    decided: bool
    emitted: bool = False    # whether ``out`` is an emitted certificate


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """``count`` values in [lo, hi], one per equal stratum, shuffled."""
    vals = [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(vals)
    return vals


def _generated(api: ModuleType, shape, density: float, seed: int) -> Item:
    text = api.emit_instance(*api.generate_bab(shape, density, seed))
    return Item(text=text, inst=read_instance(text))


def build_refute(api: ModuleType, seed: int) -> tuple[Item, ...]:
    rng = random.Random(seed)
    densities = {s: _stratified(rng, REFUTE_GROUPS, 0.3, 0.7) for s in REFUTE_SHAPES}
    return tuple(_generated(api, s, densities[s].pop(), rng.getrandbits(32))
                 for _ in range(REFUTE_GROUPS) for s in REFUTE_SHAPES)


def _blocks(n: int) -> tuple[int, int, int, int]:
    a, s, b = round(0.15 * n), round(0.2 * n), round(0.15 * n)
    return (a, s, b, n - a - s - b)


def build_construct(api: ModuleType, seed: int) -> tuple[Item, ...]:
    rng = random.Random(seed)
    items = []
    for n in CONSTRUCT_SIZES * CONSTRUCT_GROUPS:
        pl = plant(_blocks(n), rng.getrandbits(32))
        items.append(Item(text=instance_text(pl), inst=pl.inst, planted=True))
    return tuple(items)


def build_oracle(api: ModuleType, seed: int) -> tuple[Item, ...]:
    rng = random.Random(seed)
    shapes = [s for s in itertools.product(range(7), range(1, 8), range(7), range(1, 8))
              if sum(s) == ORACLE_BOUND]
    items = []
    for _ in range(ORACLE_PASSES):
        order = rng.sample(shapes, len(shapes))
        for shape, d in zip(order, _stratified(rng, len(shapes), 0.2, 0.8)):
            items.append(_generated(api, shape, d, rng.getrandbits(32)))
    return tuple(items)


def build_verify(api: ModuleType, seed: int) -> tuple[Item, ...]:
    """Planted instances with stored certificates; in every run of four
    consecutive items one certificate is corrupted, alternately by moving
    a coordinate and by swapping two entries of an order."""
    rng = random.Random(seed)
    sizes = VERIFY_SIZES * VERIFY_GROUPS
    bad = {k + rng.randrange(min(4, len(sizes) - k)) for k in range(0, len(sizes), 4)}
    kinds = itertools.cycle(("move", "swap"))
    items = []
    for i, n in enumerate(sizes):
        pl = plant(_blocks(n), rng.getrandbits(32))
        corrupt = next(kinds) if i in bad else ""
        stored = certificate(pl, corrupt=corrupt, seed=rng.getrandbits(32))
        items.append(Item(text=instance_text(pl), inst=pl.inst, planted=True,
                          cert=stored.text, valid=stored.valid))
    return tuple(items)


def run_recognize(api: ModuleType, item: Item, oracle: bool) -> Outcome:
    """parse_instance -> recognize -> emit_certificate."""
    g, p = api.parse_instance(item.text)
    cert = api.recognize(g, p, allow_oracle=oracle, oracle_bound=ORACLE_BOUND)
    out = api.emit_certificate(cert)
    return Outcome(out=out, route=f"{cert.verdict}-{cert.route}",
                   decided=cert.verdict in ("yes", "no"), emitted=True)


def run_verify(api: ModuleType, item: Item) -> Outcome:
    """parse_instance + parse_certificate -> verify_certificate."""
    g, _ = api.parse_instance(item.text)
    check = api.verify_certificate(g, api.parse_certificate(item.cert))
    out = "ok\n" if check.ok else "".join(f"{p}\n" for p in check.problems)
    return Outcome(out=out, route="accept" if check.ok else "reject", decided=True)


def check_recognize(item: Item, got: Outcome) -> str:
    """Problem with a recognize outcome, or "" when every check passes."""
    fields = read_certificate(got.out)
    verdict = fields.get("verdict")
    if verdict == "no" and item.planted:
        return "planted instance refuted"
    if verdict == "yes":
        return coords_embed(item.inst, fields["coord"])
    reason = fields.get("reason", "")
    if verdict == "no" and "odd chord-graph cycle" in reason:
        return odd_cycle_problem(item.inst, reason)
    return ""


def check_verify(item: Item, got: Outcome) -> str:
    if (got.route == "accept") != item.valid:
        return f"verify_certificate says {got.route}, expected valid={item.valid}"
    return ""


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    run: object
    check: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("refute-random", build_refute,
                 lambda api, item: run_recognize(api, item, oracle=False), check_recognize),
        Workload("construct-planted", build_construct,
                 lambda api, item: run_recognize(api, item, oracle=False), check_recognize),
        Workload("oracle-small", build_oracle,
                 lambda api, item: run_recognize(api, item, oracle=True), check_recognize),
        Workload("verify-stored", build_verify, run_verify, check_verify),
    )
}
