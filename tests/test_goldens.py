"""The command line's golden outputs, run in process: one runner, one table.

Each case of ``CASES`` runs ``squaregeo.cli.main`` on its argv, with its
stdin, and must give its exit code and its output (stdout, then stderr):
the output's sha256, or its exact text. Inputs are ``Text``s: a ``gen``
draw, the output of a command run on one, or either of them edited as
``sed`` would. A ``Text`` in an argv is written to a file under
``tmp_path`` and passed by its path.

To add a case, add a row with a comment saying which code path it pins,
and take its expected value from the code before the change it guards.
"""

import hashlib
import io
import re
import sys
from dataclasses import dataclass
from typing import Callable

import pytest

from squaregeo.cli import main


@dataclass(frozen=True)
class Text:
    """The stdout of ``argv`` run with ``of`` on stdin, which must exit 0,
    or else ``of`` passed through ``edit``; either must then hold a line
    matching ``holds``."""

    argv: tuple[str, ...] = ()
    of: "Text | None" = None
    edit: Callable[[str], str] | None = None
    holds: str | None = None


def gen(sizes: str, seed: int, density: str | None = None) -> Text:
    return Text(("gen", "--sizes", sizes, *(("--density", density) if density else ()), "--seed", str(seed)))


def sed(text: Text, pattern: str, repl: str, holds: str | None = None) -> Text:
    return Text(of=text, edit=lambda s: re.sub(pattern, repl, s, flags=re.M), holds=holds)


def edges_reversed(s: str) -> str:
    lines = s.splitlines(keepends=True)
    return "".join([x for x in lines if not x.startswith("edge ")] + [x for x in lines if x.startswith("edge ")][::-1])


ORACLE8 = ("oracle", "--oracle-bound", "8", "--format", "structured", "-")
STRUCTURED = ("recognize", "--format", "structured", "-")
SEVENTHS = gen("1,2,1,2", 1)
CERT = Text(("oracle", "--format", "structured", "-"), SEVENTHS, holds=r"^coord .*/7")
ODD, RIGID = gen("4,6,4,10", 38, "0.2"), gen("2,2,2,4", 169, "0.5")
ODD_REASON = "reason: coloring: odd chord-graph cycle (0,15) (4,17) (11,15) (4,18) (3,21)"
# as test_necessary.py::test_rigid_free_reason_lists_every_violation pins it
RIGID_REASON = ("reason: rigid-free: side a: rigid pair (2,9),(4,6) sits inside N_Y(0); side a: rigid pair "
                "(2,9),(3,7) sits inside N_Y(1); side b: rigid pair (0,6),(3,7) sits inside N_Y(4)")
N200 = gen("30,40,30,100", 0, "0.5")
RESPELT = {"canonical": N200, "swapped": sed(N200, r"^edge ([0-9]+) ([0-9]+)$", r"edge \2 \1"),
           "reversed": Text(of=N200, edit=edges_reversed)}

CASES = {  # id: (argv, stdin, exit code, sha256 or text of stdout + stderr)
    # n=200, 12,061 lines: generate, then parse and shape-check from stdin
    "large-validate": (("validate", "-"), gen("60,20,60,60", 0), 0,
                       "valid: n=200 edges=12056 |xa|=80 |xb|=80 |y|=60\n"),
    # n=100: the chord graph's nodes and links ("nodes 1058", 80358 link
    # lines) must keep the bytes recorded before the per-vertex mask build
    "chord-graph": (("chord-graph", "-"), gen("30,10,30,30", 0), 0,
                    "afdba68b8a0c2e9acedb0f3563df704e201e6b2050cb5fa94b2cbedf1ad41075"),
    # a YES whose coordinates are in sevenths must re-verify; with vertex 0
    # moved to (100, 100) the exact check must fail, and so must the
    # forced-set check with the first pair of completion1 dropped; with that
    # pair reversed the certificate is malformed, one parse error; so is it
    # with a canonical pair out of range put first, naming that pair
    "verify-ok": (("verify", SEVENTHS, CERT), None, 0, "certificate ok\n"),
    "verify-moved": (("verify", SEVENTHS, sed(CERT, r"^coord 0 .*", "coord 0 100 100", "^coord 0 100 100$")),
                     None, 1, "problem: embedding fails on pair (0, 1)\n"),
    "verify-dropped": (("verify", SEVENTHS, sed(CERT, r"^completion1 [0-9]+,[0-9]+ ?", "completion1 ",
                                                "^completion1 1,4 3,4 3,5$")),
                       None, 1, "problem: stored first forced set differs from the order's\n"),
    "verify-reversed": (("verify", SEVENTHS, sed(CERT, r"^completion1 ([0-9]+),([0-9]+)", r"completion1 \2,\1",
                                                 "^completion1 3,0 1,4 3,4 3,5$")),
                        None, 2, "parse error: line 6: pair 3,0 is not u < v among the 6 vertices of order1\n"),
    "verify-range": (("verify", SEVENTHS, sed(CERT, r"^completion1 ", "completion1 0,99 ",
                                              "^completion1 0,99 0,3 1,4 3,4 3,5$")),
                     None, 2, "parse error: line 6: pair 0,99 is not u < v among the 6 vertices of order1\n"),
    # the benchmark digests cover n=7 only; this n=8 oracle certificate must
    # keep the bytes recorded before the search stopped early
    "oracle-n8": (ORACLE8, gen("1,2,2,3", 0), 0, "6ff1208f36319ce0ecb25b4d064d273aa15708e4406a8d7e798ae44ecfcec9e9"),
    # an n=8 NO runs the search to its end, where the pruning rules cut every subtree
    "oracle-n8-no": (ORACLE8, gen("1,2,2,3", 2, "0.5"), 1,
                     "bab-certificate v1\nverdict no\nroute oracle\nreason no order pair with disjoint forced sets\n"),
    # certificates recorded before the partner search was split from the
    # scan, one per path: 1,3,1,3 seed 0 finds no partner for the first
    # clean set and its pairing finds the YES; 0,1,2,5 seed 4 starts the
    # partner search past vertex 0; 1,1,3,3 seed 0 pairs no two sets (NO)
    "oracle-no-partner": (ORACLE8, gen("1,3,1,3", 0), 0,
                          "aa6ecfb5b01bb0f6f43c9063d106bb286a63a494e28f3fb3ff5fc4333505926e"),
    "oracle-partner-past-0": (ORACLE8, gen("0,1,2,5", 4), 0,
                              "2b5a85e1103e3ac6ce051ec7faccc9911cde628a23525a49fdd740344420f68a"),
    "oracle-no-pairing": (ORACLE8, gen("1,1,3,3", 0), 1,
                          "8fcf2a0b47d254401f971627f6ce48da7a2f9283fa8035380b2feaf83a11b7f6"),
    # a YES built after construction orients an instance with forced nodes:
    # X_a and X_b trade roles and the coloring is complemented before the
    # relations are derived; no benchmark workload takes that path
    "swapped-construction": (STRUCTURED, gen("2,2,2,4", 296, "0.7"), 0,
                             "bb5dfacb33798bf09b80ee1fc66d477f8d6a64afb2e95083de7b485ca576300d"),
    # a YES by construction with no private a, so nothing ties the b's to Y
    # and the first order interleaves them with Y's read-off order by least
    # id, with no fallback sort; no benchmark workload has an empty private side
    "one-sided-construction": (STRUCTURED, gen("0,3,3,6", 9, "0.7"), 0,
                               "ae974fadfcf5ef03b90aebfc66128445ca0ed0d7edf243aaaa7265757c80c39f"),
    # an UNDECIDED at the audit whose chord graph splits into six components;
    # the audit counts them from the BFS layer masks, and this certificate
    # keeps the bytes recorded when it counted them from sorted node tuples
    "audit-components": (STRUCTURED, gen("2,3,2,6", 0, "0.3"), 2,
                         "bca8de6f356c84e246c9b474f4108693346c1b1a30871d12c72df3edac9155e4"),
    # necessary and recognize must both refute with one reason line: an odd
    # chord-graph cycle on the first instance, three rigid-free violations
    # (two on side a) on the second
    "necessary-odd": (("necessary", ODD), None, 1, f"necessary: fail\n{ODD_REASON}\n"),
    "recognize-odd": (("recognize", ODD), None, 1, f"verdict: no\nroute: necessary\n{ODD_REASON}\n"),
    "necessary-rigid": (("necessary", RIGID), None, 1, f"necessary: fail\n{RIGID_REASON}\n"),
    "recognize-rigid": (("recognize", RIGID), None, 1, f"verdict: no\nroute: necessary\n{RIGID_REASON}\n"),
    # n=200, 13,980 edges: the canonical text is read by rows, the text with
    # every edge's endpoints swapped and the one with its edge lines reversed
    # go back to lists of ids; all three must give the NO certificate and the
    # shape recorded when every text was read as lists of ids
    **{f"n200-{k}-recognize": (("recognize", "--format", "structured", t), None, 1,
                               "522219e8598322d21dd34d90340eafd40784ca8d711052351b67ce824694507b")
       for k, t in RESPELT.items()},
    **{f"n200-{k}-validate": (("validate", t), None, 0, "valid: n=200 edges=13980 |xa|=70 |xb|=70 |y|=100\n")
       for k, t in RESPELT.items()},
    # and a self loop inserted inside a run, as line 9000, must give the
    # same error as then
    "n200-self-loop": (("validate", sed(N200, r"\A((?:.*\n){8999})", r"\1edge 150 150\n")), None, 2,
                       "error: self loop at 150\n"),
}


@pytest.mark.parametrize("argv, stdin, code, expect", CASES.values(), ids=CASES.keys())
def test_cli_golden(capsys, monkeypatch, tmp_path, argv, stdin, code, expect):
    def run(argv, stdin: str) -> tuple[int, str]:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        try:
            got = main(list(argv))
        except SystemExit as exc:
            got = exc.code
        out, err = capsys.readouterr()
        return got, out + err

    def read(text: Text) -> str:
        base = read(text.of) if text.of else ""
        got, out = run(text.argv, base) if text.argv else (0, text.edit(base))
        assert got == 0 and (text.holds is None or re.search(text.holds, out, re.M)), (text, out[:300])
        return out

    def file(k: int, text: Text) -> str:
        path = tmp_path / f"{k}.txt"
        path.write_text(read(text))
        return str(path)

    got, out = run([file(k, a) if isinstance(a, Text) else a for k, a in enumerate(argv)], read(stdin) if stdin else "")
    assert got == code, out[:300]
    if re.fullmatch("[0-9a-f]{64}", expect):
        out = hashlib.sha256(out.encode()).hexdigest()
    assert out == expect
