"""The traced run: it restores the package, leaves outputs unchanged, and
its self times account for the traced operation's time."""

import json
import sys
import time
from pathlib import Path

import pytest

import squaregeo as api
import run
from tracing import SPAN_NAMES, Tracer, self_times
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _modules():
    return {k: dict(vars(m)) for k, m in sys.modules.items()
            if k == "squaregeo" or k.startswith("squaregeo.")}


def test_tracer_restores_every_attribute():
    before = _modules()
    with Tracer() as tracer:
        assert tracer._patched
        assert api.recognize is not before["squaregeo"]["recognize"]
    after = _modules()
    for name, attrs in before.items():
        assert all(after[name][k] is v for k, v in attrs.items())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_are_identical_with_tracing_on_and_off(name):
    wl = WORKLOADS[name]
    for item in wl.build(api, 5)[:4]:
        plain = wl.run(api, item).out
        with Tracer():
            traced = wl.run(api, item).out
        assert traced == plain


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_add_up_to_the_operation_time(name):
    wl = WORKLOADS[name]
    item = wl.build(api, 5)[1]
    with Tracer() as tracer:
        t0 = time.perf_counter()
        wl.run(api, item)
        total = time.perf_counter() - t0
    spans, _ = tracer.take()
    assert {s[0] for s in spans} <= set(SPAN_NAMES)
    assert all(s[3] < i for i, s in enumerate(spans))
    summed = sum(self_s for _, self_s in self_times(spans).values())
    assert summed <= total
    assert total - summed <= 0.05 * total + 0.002


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_runs_report_every_metric_named_in_the_benchmark_file(name):
    wl = WORKLOADS[name]
    corpus = wl.build(api, 2)[:3]
    tally, metrics, _ = run.measure(api, wl, corpus, 0, {}, run.SpeedRef(), min_ops=1)
    assert tally.attempted == 3 and tally.failed == 0
    assert {"setup_s", *metrics} == {m["name"] for m in BENCHMARK["end_to_end"]}
    tally, metrics = run.measure_traced(api, wl, corpus, 0, {}, min_ops=3)
    assert tally.attempted == 3 and tally.failed == 0
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(units[k] == unit for k, (_, unit) in metrics.items())


def test_traced_run_writes_every_span(tmp_path, capsys):
    out = tmp_path / "spans.jsonl"
    assert run.main(["--workload", "oracle-small", "--seed", "3", "--seconds", "0",
                     "--trace", "1", "--spans", str(out)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1
    spans = [json.loads(line) for line in out.read_text().splitlines()]
    assert spans and all(set(s) == {"name", "start", "end", "parent", "op"} for s in spans)
    for i, s in enumerate(spans):
        assert s["start"] <= s["end"] and s["parent"] < i
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["op"] == s["op"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
