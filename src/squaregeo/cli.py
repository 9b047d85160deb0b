"""Command line front end.

Exit codes follow the verdict: 0 for YES (or success), 1 for NO (or a
failed check), 2 for UNDECIDED and for any error.
"""

from __future__ import annotations

import argparse
import sys

from .chords import build_chord_graph
from .embedding import ORACLE_BOUND
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
    g, p = generate_bab(sizes, args.density, args.seed)
    sys.stdout.write(emit_instance(g, p))
    return EXIT_YES


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with every argument that an error echoes cut as
    in every error, quoted where argparse quotes it: whole, after its first
    ``=``, or after the ``h``s argparse reads as chained ``-h`` flags. The
    unrecognized arguments are cut as one text, however many there are."""

    def parse_known_args(self, args=None, namespace=None):
        self._argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(self._argv, namespace)

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + _echo(" ".join(extras), str))
        return args

    def error(self, message):
        for arg in self._argv:
            value = arg.partition("=")[2]
            texts = {arg, value, value.lstrip("h"), arg[1:].lstrip("h")}
            for text in sorted(texts, key=len, reverse=True):  # no cut inside a longer echo
                message = message.replace(repr(text), _echo(text)).replace(text, _echo(text, str))
        super().error(message)


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
        sp.add_argument("--oracle-bound", type=int, default=ORACLE_BOUND, metavar="N")
        sp.add_argument("--format", choices=("text", "structured"), default="text")

    sp = instance_cmd("oracle", cmd_oracle, "exhaustive order search only")
    sp.add_argument("--oracle-bound", type=int, default=ORACLE_BOUND, metavar="N")
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
    sp.set_defaults(func=cmd_gen)
    return parser


def _os_message(exc: OSError) -> str:
    """``str(exc)``, with each file name it carries cut by ``_echo``."""
    if exc.filename is None:
        return str(exc)
    text = f"[Errno {exc.errno}] {exc.strerror}: {_echo(exc.filename)}"
    if exc.filename2 is not None:
        text += f" -> {_echo(exc.filename2)}"
    return text


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, GenerationError, OSError) as exc:
        kind = "parse error" if isinstance(exc, ParseError) else "error"
        text = _os_message(exc) if isinstance(exc, OSError) else str(exc)
        print(f"{kind}: {text}", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
