"""Parser fuzz: emitted and mutated instance and certificate texts.

Emitted text must survive a parse and re-emit byte for byte. Mutated text
may be rejected, but only with one of the package's ValueError subclasses,
and the command line must answer it with exit code 0, 1 or 2, never with a
traceback.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from squaregeo import (
    emit_certificate,
    emit_instance,
    generate_bab,
    parse_certificate,
    parse_instance,
    recognize,
)
from squaregeo.cli import main
from squaregeo.errors import InputError, ParseError, ScopeError, StructuralError

PACKAGE_ERRORS = (ParseError, InputError, StructuralError, ScopeError)
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Tokens that have broken, or could break, a parser: huge and negative ids,
# exponents, decimals, a zero denominator, and an integer past the
# interpreter's digit limit.
HOSTILE = [
    "100000000000000000000", "-1", "0", "7", "1e10000000", "0.5", "1/0", "-3/4",
    "9" * 5000, "1,2", "0;1", "nan", "inf", "#", "n", "xa", "xb", "y", "edge",
    "coord", "order1", "completion1", "verdict", "yes", "", " ",
]


@st.composite
def instances(draw):
    sizes = (
        draw(st.integers(0, 3)), draw(st.integers(1, 3)),
        draw(st.integers(0, 3)), draw(st.integers(1, 4)),
    )
    density = draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]))
    return generate_bab(sizes, density, draw(st.integers(0, 10**6)))


instance_texts = instances().map(lambda gp: emit_instance(*gp))
certificate_texts = instances().map(lambda gp: emit_certificate(recognize(*gp)))


@st.composite
def mutated(draw, texts):
    """An emitted text with one to four line edits: a line dropped,
    doubled or swapped with another, a token replaced, or a raw character
    inserted."""
    lines = draw(texts).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "double", "swap", "token", "char"]))
        if kind == "drop":
            del lines[i]
        elif kind == "double":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            toks = lines[i].split(" ")
            k = draw(st.integers(0, len(toks)))
            tok = draw(st.sampled_from(HOSTILE) | st.text(max_size=4))
            lines[i] = " ".join(toks[:k] + [tok] + toks[k + 1:])
        else:
            k = draw(st.integers(0, len(lines[i])))
            ch = draw(st.characters(codec="utf-8", exclude_categories=["Cs"]))
            lines[i] = lines[i][:k] + ch + lines[i][k:]
    return "\n".join(lines) + "\n"


def _parses_or_raises_a_package_error(parse, text) -> bool:
    """Whether ``text`` parses; any error but a package error propagates."""
    try:
        parse(text)
    except PACKAGE_ERRORS:
        return False
    return True


@FUZZ
@given(instance_texts)
def test_emitted_instances_are_a_fixed_point(text):
    assert emit_instance(*parse_instance(text)) == text


@FUZZ
@given(certificate_texts)
def test_emitted_certificates_are_a_fixed_point(text):
    assert emit_certificate(parse_certificate(text)) == text


@FUZZ
@given(mutated(instance_texts))
def test_mutated_instances_raise_only_package_errors(text):
    _parses_or_raises_a_package_error(parse_instance, text)


@FUZZ
@given(mutated(certificate_texts) | mutated(instance_texts))
def test_mutated_certificates_raise_only_package_errors(text):
    _parses_or_raises_a_package_error(parse_certificate, text)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance_texts | mutated(instance_texts), certificate_texts | mutated(certificate_texts))
def test_cli_answers_every_text_with_an_exit_code(instance_text, certificate_text):
    with tempfile.TemporaryDirectory() as tmp:
        inst = os.path.join(tmp, "instance.txt")
        cert = os.path.join(tmp, "certificate.txt")
        with open(inst, "w", encoding="utf-8") as fh:
            fh.write(instance_text)
        with open(cert, "w", encoding="utf-8") as fh:
            fh.write(certificate_text)
        for argv in (["validate", inst], ["recognize", inst], ["verify", inst, cert]):
            code, err = _run(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err


def _substituted(text):
    """``text`` with one token replaced by one hostile token, for every
    token of every line and every hostile token."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        toks = line.split(" ")
        for k in range(len(toks)):
            for tok in HOSTILE:
                edited = " ".join(toks[:k] + [tok] + toks[k + 1:])
                yield "\n".join(lines[:i] + [edited] + lines[i + 1:]) + "\n"


def test_every_field_takes_every_hostile_token(g8):
    """Each hostile token in each field of the worked example's instance
    and certificate: parsers raise only package errors, and the command
    line answers every text that parses with an exit code (one that does
    not parse ends in the parse error's exit code 2)."""
    g, p = g8
    instance_text = emit_instance(g, p)
    certificate_text = emit_certificate(recognize(g, p))
    codes = set()
    with tempfile.TemporaryDirectory() as tmp:
        inst = os.path.join(tmp, "instance.txt")
        cert = os.path.join(tmp, "certificate.txt")
        for kind, parse, texts in (
            ("instance", parse_instance, _substituted(instance_text)),
            ("certificate", parse_certificate, _substituted(certificate_text)),
        ):
            for text in texts:
                if not _parses_or_raises_a_package_error(parse, text):
                    continue
                with open(inst, "w", encoding="utf-8") as fh:
                    fh.write(text if kind == "instance" else instance_text)
                with open(cert, "w", encoding="utf-8") as fh:
                    fh.write(text if kind == "certificate" else certificate_text)
                argv = ["recognize", inst] if kind == "instance" else ["verify", inst, cert]
                code, err = _run(argv)
                assert code in (0, 1, 2) and "Traceback" not in err, (argv, text)
                codes.add((kind, code))
    assert codes == {("instance", 0), ("instance", 1), ("instance", 2),
                     ("certificate", 0), ("certificate", 1)}
