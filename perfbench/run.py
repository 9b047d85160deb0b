"""Time-to-verdict benchmark for squaregeo.

Run from the root of a checkout:

    python3 perfbench/run.py --workload refute-random --seed 1 --seconds 25 --trace 0

The benchmark imports the package from ``src/`` next to this directory,
builds the workload's corpus from the seed, then runs operations in a
closed loop (one client, one thread) over the corpus, in order and round
and round, for the given number of seconds. An untraced run also goes on
until it has timed at least ``MIN_OPS`` operations and one full pass over
the corpus. Every operation's output is re-checked
by the benchmark's own code. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` each
operation runs once plain and once under ``tracing.Tracer`` and the metrics
are the per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from checks import coord_denominators, digest, witness_nodes
from speed import REF_LOOP_S, SpeedRef
from tracing import SPAN_NAMES, Tracer, self_times
from workloads import ROUTES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference_digests.json"
MIN_OPS = 100
MAX_SECONDS = 150
# Set-up is repeated at least SETUP_MIN_REPEATS times and until it has
# taken SETUP_MIN_SECONDS in all, so that short set-ups get a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 50
SETUP_MIN_SECONDS = 1.0
SETUP_SPEED_SAMPLES = 3  # speed samples around each set-up, which runs for up to a second


def load_package():
    """Import squaregeo from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "squaregeo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src / 'squaregeo'}")
    sys.path.insert(0, str(src))
    api = importlib.import_module("squaregeo")
    if Path(api.__file__).resolve().parent != (src / "squaregeo").resolve():
        raise SystemExit(f"perfbench: squaregeo imported from {api.__file__}, not {src}")
    return api


def setup(api, wl, seed: int, speed: SpeedRef):
    """Build the corpus repeatedly; return it with the median build time,
    rescaled by ``speed``. Differing corpora from one seed are an error."""
    spans, keys, corpus = [], set(), ()
    while len(spans) < SETUP_MIN_REPEATS or (
        sum(t1 - t0 for t0, t1 in spans) < SETUP_MIN_SECONDS and len(spans) < SETUP_MAX_REPEATS
    ):
        corpus = ()  # free the last build, so each build starts from the same heap
        gc.collect()
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        t0 = time.perf_counter()
        corpus = wl.build(api, seed)
        spans.append((t0, time.perf_counter()))
        keys.add(tuple(item.key for item in corpus))
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    if len(keys) != 1:
        raise SystemExit(f"perfbench: seed {seed} gave different {wl.name} corpora")
    return corpus, statistics.median((t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans)


def load_references(workload: str) -> dict[str, str]:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


class Tally:
    """Attempts, failures and the first few problems of one run."""

    def __init__(self, refs: dict[str, str]):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.compared = 0
        self.problems: list[str] = []

    def record(self, wl, item, got, exc: BaseException | None = None, extra: str = "") -> None:
        self.attempted += 1
        if exc is not None:
            problem = f"raised {type(exc).__name__}: {exc}"
        else:
            self.decided += got.decided
            problem = wl.check(item, got) or extra
            ref = self.refs.get(item.key)
            if ref is not None:
                self.compared += 1
                if not problem and ref != digest(got.out):
                    problem = "output bytes differ from the reference digest"
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{item.key}: {problem}")


def timed(api, wl, item):
    """Run one operation; returns (outcome, exception, start, end)."""
    t0 = time.perf_counter()
    try:
        got = wl.run(api, item)
    except Exception as exc:  # an operation that raises is a failed operation
        return None, exc, t0, time.perf_counter()
    return got, None, t0, time.perf_counter()


def measure(api, wl, corpus, seconds: float, refs, speed: SpeedRef, min_ops: int = MIN_OPS):
    """Untraced closed loop; returns the tally, the end-to-end metrics
    other than ``setup_s``, and the raw wall-clock times."""
    tally = Tally(refs)
    spans = []
    min_ops = max(min_ops, len(corpus))
    speed.sample()
    start = time.perf_counter()
    i = 0
    while True:
        item = corpus[i % len(corpus)]
        got, exc, t0, t1 = timed(api, wl, item)
        spans.append((t0, t1))
        tally.record(wl, item, got, exc)
        speed.maybe_sample()
        i += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i >= min_ops) or elapsed >= MAX_SECONDS:
            break
    speed.sample()
    raw = [t1 - t0 for t0, t1 in spans]
    times = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans]
    metrics = {
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "decided_share": (tally.decided / tally.attempted, "ratio"),
        "checked_share": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics, raw


def measure_traced(api, wl, corpus, seconds: float, refs, min_ops: int = 1,
                   keep_spans: list | None = None):
    """Each operation runs plain and traced, in alternating order. The
    traced output must equal the plain one byte for byte. Returns the
    tally and the per-layer metrics, per traced operation."""
    tally = Tally(refs)
    tracer = Tracer()
    agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    counts: Counter[str] = Counter()
    plain_total = traced_total = 0.0
    ops = max_den = 0
    start = time.perf_counter()
    i = 0
    while True:
        item = corpus[i % len(corpus)]
        tracer.op = i
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    runs[traced] = timed(api, wl, item)
            else:
                runs[traced] = timed(api, wl, item)
        spans, results = tracer.take()
        (plain, plain_exc, p0, p1), (got, exc, t0, t1) = runs[False], runs[True]
        extra = ""
        if exc is None and (plain_exc is not None or plain.out != got.out):
            extra = "output bytes change under tracing"
        tally.record(wl, item, got, exc or plain_exc, extra)
        i += 1
        if got is not None:
            ops += 1
            plain_total += p1 - p0
            traced_total += t1 - t0
            for name, (calls, self_s) in self_times(spans).items():
                agg[name][0] += calls
                agg[name][1] += self_s
            for _, cg in results:
                counts["chords.nodes"] += len(cg.nodes)
                counts["chords.edges"] += sum(a.bit_count() for a in cg.adj) // 2
            counts[f"route.{got.route}"] += 1
            counts["necessary.witness_len"] += len(witness_nodes(got.out))
            counts["instances.bytes_in"] += len(item.text.encode()) + len(item.cert.encode())
            if got.emitted:
                counts["instances.bytes_out"] += len(got.out.encode())
                max_den = max([max_den, *coord_denominators(got.out)])
            if keep_spans is not None:
                base = len(keep_spans)  # parents become indices into keep_spans
                keep_spans.extend((name, s, e, parent + base if parent >= 0 else -1, op)
                                  for name, s, e, parent, op in spans)
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i >= min_ops) or elapsed >= MAX_SECONDS:
            break
    ops = max(ops, 1)
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s = agg.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / ops, "count/op")
        metrics[f"{name}.self_s"] = (self_s / ops, "s/op")
    for name in ("necessary.witness_len", "chords.nodes", "chords.edges"):
        metrics[name] = (counts[name] / ops, "count/op")
    for name in ("instances.bytes_in", "instances.bytes_out"):
        metrics[name] = (counts[name] / ops, "B/op")
    suff_calls = agg.get("orders.check_sufficient", (0, 0.0))[0]
    yields = counts["route.yes-sufficient"] / suff_calls if suff_calls else 0.0
    metrics["orders.construct_yield"] = (yields, "ratio")
    metrics["embedding.max_denominator"] = (max_den, "count")
    for r in ROUTES:
        metrics[f"pipeline.route.{r}.count"] = (counts[f"route.{r}"] / ops, "count/op")
    overhead = traced_total / plain_total - 1 if plain_total else 0.0
    metrics["trace.overhead_share"] = (overhead, "ratio")
    return tally, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, help="with --trace 1, write every span here as JSON lines")
    args = ap.parse_args(argv)

    api = load_package()
    wl = WORKLOADS[args.workload]
    speed = SpeedRef()
    corpus, setup_s = setup(api, wl, args.seed, speed)
    refs = load_references(wl.name)
    gc.collect()
    if args.trace:
        spans = [] if args.spans else None
        tally, metrics = measure_traced(api, wl, corpus, args.seconds, refs, keep_spans=spans)
        if spans is not None:
            with args.spans.open("w") as fh:
                for name, start, end, parent, op in spans:
                    fh.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")
    else:
        tally, metrics, raw = measure(api, wl, corpus, args.seconds, refs, speed)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
        print(f"# wall clock, not rescaled: op_p50_s = {statistics.median(raw):.6g} s, "
              f"ops_per_s = {len(raw) / sum(raw):.6g} 1/s; reference loop median "
              f"{statistics.median(speed.durations):.6g} s for {REF_LOOP_S} s at reference speed")

    print(f"# workload={wl.name} seed={args.seed} trace={args.trace} corpus={len(corpus)} "
          f"samples={tally.attempted} failed={tally.failed} digests_compared={tally.compared}")
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
