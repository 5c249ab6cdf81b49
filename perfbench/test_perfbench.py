"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import copy
import json
import statistics
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from env import REPO_ROOT, pin_blas_threads, use_package_sources

pin_blas_threads()
use_package_sources()

import run  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_time, traced_layers, union_length  # noqa: E402
from stats import summarize, tail_percentile  # noqa: E402


def test_union_counts_overlapping_intervals_once():
    intervals = [(1.0, 4.0), (3.0, 6.0), (8.0, 9.0), (9.5, 12.0)]
    assert union_length(intervals) == pytest.approx(5.0 + 1.0 + 2.5)
    assert union_length(intervals, 0.0, 10.0) == pytest.approx(5.0 + 1.0 + 0.5)
    assert union_length([]) == 0.0


def test_self_time_subtracts_union_of_overlapping_children():
    parent = Span(1, None, "montecarlo", 0.0, 10.0)
    children = [
        Span(2, 1, "detector", 1.0, 4.0),
        Span(3, 1, "detector", 3.0, 6.0),  # concurrent with the first
        Span(4, 1, "channel", 8.0, 9.0),
        Span(5, 1, "channel", 9.5, 12.0),  # runs past the parent's end
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 6.5)


def test_worker_thread_spans_take_the_main_threads_open_span_as_parent():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work(_):
        with tracer.span("detector") as sp:
            sp.attrs["frames"] = 8
            barrier.wait(timeout=5)

    with tracer.span("montecarlo") as top:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(2)))
    kids = [s for s in tracer.spans if s.name == "detector"]
    assert len(kids) == 2 and all(s.parent == top.id for s in kids)
    m = layer_metrics(tracer.spans, workers=2)
    assert m["montecarlo.calls"] == 1 and m["detector.frames"] == 16
    assert 0.0 <= m["montecarlo.self_s"] <= top.seconds
    # the children overlap, so they cover less of the parent than their sum
    assert m["montecarlo.self_s"] > top.seconds - sum(s.seconds for s in kids)


def test_summary_reports_median_quartiles_and_sample_count():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    s = summarize(values)
    q1, _, q3 = statistics.quantiles(sorted(values), n=4)
    assert s == {"median": 3.0, "q1": q1, "q3": q3, "n": 5}
    assert summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    with pytest.raises(ValueError):
        summarize([])


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    s = summarize(range(1, 101))
    assert s["n"] == 100 and s["p90"] == pytest.approx(statistics.quantiles(range(1, 101), n=10)[8])


def test_layer_counts_repeat_exactly_at_a_fixed_seed():
    from workloads import DeWorkload

    wl = DeWorkload()
    template = wl.setup()
    cfg = wl.config(seed=3, generations=1, s_p=4, frames=256)
    from scma.optimizer import optimize

    count_metrics = [k for k, unit in run.PER_LAYER_UNITS.items() if unit.startswith("count")]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with traced_layers(tracer):
            optimize(template, cfg)
        m = layer_metrics(tracer.spans, workers=1)
        counts.append({k: m[k] for k in count_metrics})
    assert counts[0] == counts[1]
    # init evaluates 4 rows; one generation re-measures 4 and tries 4
    assert counts[0]["montecarlo.calls"] == 12
    assert counts[0]["channel.calls"] == counts[0]["montecarlo.blocks"] == 12
    assert counts[0]["detector.frames"] == 12 * 256


def test_benchmark_json_names_the_metrics_the_run_prints():
    bench = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS


def test_corrupted_reference_fails_the_run(capsys):
    refs = json.loads(run.REFERENCES.read_text())
    good = refs["spare"]["table2_awgn_6x4"]["errors"]
    bad = copy.deepcopy(refs)
    bad["spare"]["table2_awgn_6x4"]["errors"] = [good[0] + 1] + good[1:]
    code = run.main(
        ["--workload", "ser-12x6-rayleigh", "--seed", "3", "--seconds", "1", "--trace", "0"],
        references=bad,
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert result["attempted"] == 4  # quick check, two spare codebooks, one op
