"""The planted generator, the certificates built without the package and the
independent checks."""

from fractions import Fraction

import pytest

import squaregeo as api
from checks import bits, coords_embed, odd_cycle_problem, points_embed, read_certificate
from planted import K, certificate, instance_text, plant
from workloads import WORKLOADS, _blocks

SIZES = [_blocks(n) for n in (20, 70, 125)]


@pytest.mark.parametrize("sizes", SIZES)
@pytest.mark.parametrize("seed", [0, 7])
def test_planted_graph_passes_validate_bab(sizes, seed):
    pl = plant(sizes, seed)
    g = api.build_graph(pl.n, [(u, v) for u in range(pl.n) for v in bits(pl.inst.adj[u]) if u < v])
    p = api.validate_bab(g, pl.xa, pl.xb, sorted(pl.inst.y))
    assert p.a_only and p.b_only
    g2, _ = api.parse_instance(instance_text(pl))
    assert g2 == g


@pytest.mark.parametrize("sizes", SIZES)
@pytest.mark.parametrize("seed", [0, 7])
def test_planted_points_pass_the_exact_check(sizes, seed):
    pl = plant(sizes, seed)
    assert points_embed(pl.inst.adj, pl.points, K) is None
    coords = read_certificate(certificate(pl).text)["coord"]
    assert coords_embed(pl.inst, coords) == ""


def test_same_seed_gives_same_bytes():
    a, b = plant(SIZES[1], 3), plant(SIZES[1], 3)
    assert instance_text(a) == instance_text(b)
    assert certificate(a, "swap", seed=5) == certificate(b, "swap", seed=5)
    assert instance_text(plant(SIZES[1], 4)) != instance_text(a)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corpus_depends_on_the_seed_alone(name):
    build = WORKLOADS[name].build
    first = [(i.text, i.cert) for i in build(api, 11)]
    assert first == [(i.text, i.cert) for i in build(api, 11)]
    assert first != [(i.text, i.cert) for i in build(api, 12)]


@pytest.mark.parametrize("corrupt", ["", "move", "swap"])
def test_verify_certificate_agrees_with_the_stored_verdict(corrupt):
    for seed in range(4):
        pl = plant(SIZES[1], seed)
        stored = certificate(pl, corrupt=corrupt, seed=seed)
        g, _ = api.parse_instance(instance_text(pl))
        got = api.verify_certificate(g, api.parse_certificate(stored.text))
        assert got.ok == stored.valid
        assert stored.valid == (corrupt == "")


def test_exact_check_rejects_a_moved_coordinate():
    pl = plant(SIZES[1], 1)
    lines = read_certificate(certificate(pl).text)["coord"].splitlines()
    v, x, y = lines[0].split()
    lines[0] = f"{v} {Fraction(x) + 3} {y}"
    assert coords_embed(pl.inst, "\n".join(lines)) != ""


def test_odd_cycle_recheck_accepts_real_witnesses_and_rejects_tampered_ones():
    refute = WORKLOADS["refute-random"]
    seen = 0
    for item in refute.build(api, 0)[:10]:
        reason = read_certificate(refute.run(api, item).out).get("reason", "")
        if "odd chord-graph cycle" not in reason:
            continue
        seen += 1
        assert odd_cycle_problem(item.inst, reason) == ""
        head, _, nodes = reason.partition("cycle ")
        first, *rest = nodes.split()
        assert odd_cycle_problem(item.inst, head + "cycle " + " ".join(rest)) != ""
        x = int(first.strip("()").split(",")[0])
        y_nb = min(y for y in bits(item.inst.adj[x]) if y in item.inst.y)
        tampered = " ".join([f"({x},{y_nb})", *rest])
        assert odd_cycle_problem(item.inst, head + "cycle " + tampered) != ""
    assert seen
