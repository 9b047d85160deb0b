"""Spans around the package's public functions, for the traced run.

``Tracer`` replaces each traced function at every module attribute of the
package that holds it, so calls between modules and within a module both
pass through the wrapper. Leaving the ``with`` block restores the
originals. Each span is (name, start, end, parent index, operation id); the
parent index points into the same list and is -1 for a top-level span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Public functions per module whose time and calls the traced run reports.
# Small helpers that run inside every loop (graph.bits, graph.mask_of,
# graph.ny_mask, graph.nx_mask) are left out: wrapping them would measure
# the wrapper.
TRACED = {
    "graph": ("build_graph", "validate_bab", "is_unit_interval_order"),
    "chords": ("build_chord_graph", "compute_ab_sets", "audit_assumption1", "enumerate_rigid_pairs"),
    "necessary": ("check_necessary", "color_constrained", "check_rigid_free", "rigid_region_sets"),
    "orders": ("derive_relations", "validate_partial_order", "build_order1", "build_order2",
               "check_sufficient"),
    "embedding": ("completion", "make_order_pair", "realize_unit_interval", "embed",
                  "verify_embedding", "brute_force_orders"),
    "instances": ("parse_instance", "emit_certificate", "parse_certificate"),
    "pipeline": ("recognize", "verify_certificate"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
PACKAGE = "squaregeo"
# Spans whose return values are kept, so that sizes can be counted after
# the operation, outside any span.
KEEP = frozenset({"chords.build_chord_graph"})


class Tracer:
    """Wraps the traced functions while active and records their spans,
    and the return values of the spans in ``KEEP``."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.results: list[tuple[str, object]] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, results = self.spans, self._stack, self.results
        keep = name in KEEP
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if keep:
                results.append((name, out))
            return out

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod, fns in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{mod}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def take(self) -> tuple[list[tuple], list[tuple[str, object]]]:
        """Spans and kept results recorded since the last call."""
        spans, results = list(self.spans), list(self.results)
        self.spans.clear()
        self.results.clear()
        return spans, results


def self_times(spans: list[tuple]) -> dict[str, list[float]]:
    """Per span name: [calls, summed self time]. Self time is a span's
    duration minus the durations of its direct children; spans nest, so
    the children cover disjoint parts of their parent."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, _, _) in enumerate(spans):
        acc = out[name]
        acc[0] += 1
        acc[1] += (end - start) - child[i]
    return out
