"""Exception types shared across the package, and how their messages
echo input."""

_ECHO_LIMIT = 40


def _echo(value, show=repr) -> str:
    """``show`` of ``str(value)`` for an error message: at most its first
    ``_ECHO_LIMIT`` characters, then a count of the rest. Input fields are
    quoted with ``repr``, ids and counts shown bare with ``str``."""
    text = str(value)
    cut = len(text) - _ECHO_LIMIT
    return show(text) if cut <= 0 else f"{show(text[:_ECHO_LIMIT])} … ({cut} more characters)"


class InputError(ValueError):
    """Malformed primitive input (bad vertex id, self loop, not a permutation)."""


class StructuralError(ValueError):
    """Input violates a structural requirement (missing clique edge, bad realization)."""


class ScopeError(ValueError):
    """Input is outside the scope a routine is specified for."""


class OrderConstructionError(RuntimeError):
    """The order-construction rules produced a constraint cycle.

    Carries the offending cycle as a tuple of vertices."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("constraint cycle: " + " -> ".join(map(str, self.cycle)))


class GenerationError(RuntimeError):
    """A random instance was requested with bad arguments (block sizes,
    density)."""


class ParseError(ValueError):
    """Text input could not be parsed; message includes the line number."""
