"""Command line front end.

Exit codes follow the verdict: 0 for YES (or success), 1 for NO (or a
failed check), 2 for UNDECIDED and for any error.
"""

from __future__ import annotations

import argparse
import sys

from .chords import build_chord_graph
from .errors import GenerationError, ParseError, _echo
from .graph import BabPartition, Graph
from .instances import emit_certificate, emit_instance, generate_bab, parse_certificate, parse_instance
from .necessary import NecessaryStatus, check_necessary
from .pipeline import NO, YES, Certificate, oracle_certificate, recognize, verify_certificate

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNDECIDED = 2


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_instance(path: str) -> tuple[Graph, BabPartition]:
    return parse_instance(_read(path))


def _print_certificate(cert: Certificate, fmt: str):
    if fmt == "structured":
        sys.stdout.write(emit_certificate(cert))
        return
    print(f"verdict: {cert.verdict}")
    print(f"route: {cert.route}")
    if cert.reason:
        print(f"reason: {cert.reason}")
    if cert.verdict == YES:
        print("order1:", " ".join(map(str, cert.order1)))
        print("order2:", " ".join(map(str, cert.order2)))
        for v, (x, y) in enumerate(cert.embedding):
            print(f"vertex {v}: ({x}, {y})")


def _verdict_exit(verdict: str) -> int:
    return {YES: EXIT_YES, NO: EXIT_NO}.get(verdict, EXIT_UNDECIDED)


def cmd_validate(args) -> int:
    g, p = _load_instance(args.instance)
    print(
        f"valid: n={g.n} edges={g.edge_count()} "
        f"|xa|={p.x_a.bit_count()} |xb|={p.x_b.bit_count()} |y|={p.y.bit_count()}"
    )
    return EXIT_YES


def cmd_chord_graph(args) -> int:
    g, p = _load_instance(args.instance)
    cg = build_chord_graph(g, p)
    print(f"nodes {len(cg.nodes)}")
    for x, y in cg.nodes:
        print(f"node {x},{y}")
    for i, j in cg.edges():
        xi, yi = cg.nodes[i]
        xj, yj = cg.nodes[j]
        print(f"link {xi},{yi} {xj},{yj}")
    return EXIT_YES


def cmd_necessary(args) -> int:
    g, p = _load_instance(args.instance)
    nec = check_necessary(g, p, build_chord_graph(g, p))
    print(f"necessary: {nec.status.value}")
    if nec.reason:
        print(f"reason: {nec.reason}")
    if nec.status is NecessaryStatus.PASS:
        return EXIT_YES
    if nec.status is NecessaryStatus.FAIL:
        return EXIT_NO
    return EXIT_UNDECIDED


def cmd_recognize(args) -> int:
    g, p = _load_instance(args.instance)
    cert = recognize(g, p, allow_oracle=args.oracle, oracle_bound=args.oracle_bound)
    _print_certificate(cert, args.format)
    return _verdict_exit(cert.verdict)


def cmd_embed(args) -> int:
    g, p = _load_instance(args.instance)
    cert = recognize(g, p, allow_oracle=args.oracle, oracle_bound=args.oracle_bound)
    if cert.verdict != YES:
        print(f"no embedding: verdict {cert.verdict} ({cert.reason})", file=sys.stderr)
        return _verdict_exit(cert.verdict)
    _print_certificate(cert, args.format)
    return EXIT_YES


def cmd_verify(args) -> int:
    g, _ = _load_instance(args.instance)
    cert = parse_certificate(_read(args.certificate))
    check = verify_certificate(g, cert)
    if check.ok:
        print("certificate ok")
        return EXIT_YES
    for problem in check.problems:
        print(f"problem: {problem}")
    return EXIT_NO


def cmd_oracle(args) -> int:
    g, _ = _load_instance(args.instance)
    cert = oracle_certificate(g, args.oracle_bound)
    _print_certificate(cert, args.format)
    return _verdict_exit(cert.verdict)


def cmd_gen(args) -> int:
    try:
        sizes = tuple(int(tok) for tok in args.sizes.split(","))
    except ValueError:
        raise GenerationError(f"sizes wants four integers, got {_echo(args.sizes)}") from None
    if len(sizes) != 4:
        raise GenerationError("sizes wants exactly four comma-separated integers")
    g, p = generate_bab(sizes, args.density, args.seed, filter=args.filter)
    sys.stdout.write(emit_instance(g, p))
    return EXIT_YES


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with a value that its type or its choices reject
    cut in the error as in every error."""

    def _get_values(self, action, strings):
        try:
            return super()._get_values(action, strings)
        except argparse.ArgumentError as exc:
            message = exc.message
            for text in strings:
                message = message.replace(repr(text), _echo(text))
            raise argparse.ArgumentError(action, message) from None


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="squaregeo",
        description="Recognize and embed graphs made of two overlapping cliques "
        "against a third under the unit max metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_cmd(name, func, help_):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("instance", help="instance file, or - for stdin")
        sp.set_defaults(func=func)
        return sp

    instance_cmd("validate", cmd_validate, "parse an instance and check its shape")
    instance_cmd("chord-graph", cmd_chord_graph, "print the derived chord graph")
    instance_cmd("necessary", cmd_necessary, "run the refutation tests")

    for name, func, help_ in (
        ("recognize", cmd_recognize, "full decision pipeline"),
        ("embed", cmd_embed, "decide and print exact coordinates"),
    ):
        sp = instance_cmd(name, func, help_)
        sp.add_argument("--oracle", action="store_true", help="fall back to exhaustive search")
        sp.add_argument("--oracle-bound", type=int, default=6, metavar="N")
        sp.add_argument("--format", choices=("text", "structured"), default="text")

    sp = instance_cmd("oracle", cmd_oracle, "exhaustive order search only")
    sp.add_argument("--oracle-bound", type=int, default=6, metavar="N")
    sp.add_argument("--format", choices=("text", "structured"), default="text")

    sp = sub.add_parser("verify", help="re-check a certificate against an instance")
    sp.add_argument("instance")
    sp.add_argument("certificate")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("gen", help="generate a random instance")
    sp.add_argument("--sizes", required=True, metavar="A,S,B,Y",
                    help="private-a, shared, private-b and y block sizes")
    sp.add_argument("--density", type=float, default=0.5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--filter", choices=("none", "assumption1", "sufficient"), default="none")
    sp.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, GenerationError, OSError) as exc:
        kind = "parse error" if isinstance(exc, ParseError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
