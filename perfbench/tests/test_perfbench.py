"""Tests for the benchmark's own code, on presets at their design n = 2.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import bench  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from povmcast import presets, protocol  # noqa: E402


def small_doc(name="three-outcome-split", trials=4):
    doc = presets.preset_document(name)
    doc.pop("sweep", None)
    doc["trials"] = trials
    return doc


def traced_trials(doc, workers=1):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cfg, single, block = bench.setup(doc)
        records = protocol.simulate_trials(
            single,
            cfg.params,
            mode=cfg.mode,
            trials=cfg.trials,
            block=block,
            workers=workers,
        )
    finally:
        tracer.uninstall()
    return tracer, records


def test_self_times_of_overlapping_and_clipped_children():
    spans = [
        tracing.Span("root", 0.0, None, 1),
        tracing.Span("a", 1.0, 0, 1),
        tracing.Span("b", 2.0, 0, 2),
        tracing.Span("c", 8.0, 0, 2),
    ]
    for span, end in zip(spans, (10.0, 3.0, 5.0, 12.0)):
        span.end = end
    # children cover [1, 5] and [8, 10] of the root's [0, 10]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 4.0])


def test_self_times_sum_back_to_the_traced_total():
    tracer, _ = traced_trials(small_doc())
    selfs = tracing.self_times(tracer.spans)
    assert min(selfs) >= 0.0
    roots = [s for s in tracer.spans if s.parent is None]
    assert {s.name for s in roots} == {
        "config.load",
        "protocol.prepare",
        "protocol.geometry",
        "protocol.pool",
    }
    total = sum(s.end - s.start for s in roots)
    assert sum(selfs) == pytest.approx(total, rel=1e-9, abs=1e-9)
    assert tracing.root_coverage(tracer.spans) == pytest.approx(total)
    assert not tracer.missing


def test_worker_thread_spans_nest_under_the_pool():
    tracer, records = traced_trials(small_doc(trials=6), workers=2)
    spans = tracer.spans
    pool = [i for i, s in enumerate(spans) if s.name == tracing.POOL_SPAN]
    assert len(pool) == 1
    work = [s for s in spans if s.name in tracing.TRIAL_WORK]
    assert len(work) == 3 * len(records)
    assert all(s.parent == pool[0] for s in work)
    assert all(s.thread != spans[pool[0]].thread for s in work)
    metrics = tracing.layer_metrics(tracer, [1.0], 1.0, memory_stub())
    assert 0.0 < metrics["protocol.pool.efficiency"] <= 1.0


def test_missing_target_is_reported_not_raised():
    tracer = tracing.Tracer()
    missing = tracer.install(
        [
            ("povmcast.protocol", "no_such_function", "x"),
            ("povmcast.no_such_module", "f", "x"),
        ]
    )
    tracer.uninstall()
    assert missing == [
        "povmcast.protocol.no_such_function",
        "povmcast.no_such_module.f",
    ]


def test_observer_failure_is_reported_not_raised():
    tracer = tracing.Tracer()
    # a wrapped call whose result lacks the fields its observer reads
    target = ("povmcast.presets", "preset_names", "protocol.gamma")
    assert tracer.install([target]) == []
    try:
        assert presets.preset_names()
        assert presets.preset_names()
    finally:
        tracer.uninstall()
    assert len(tracer.missing) == 1
    assert tracer.missing[0].startswith("protocol.gamma counts (Attribute")


def memory_stub():
    return {
        "geometry.bytes": 1.0,
        "geometry.peak_mb": 1.0,
        "instance.bytes": 1.0,
        "instance.peak_mb": 1.0,
    }


def test_layer_metrics_match_benchmark_json():
    tracer, _ = traced_trials(small_doc())
    metrics = tracing.layer_metrics(tracer, [1.0], 1.0, memory_stub())
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["protocol.sample.degenerate_ratio"] <= 1.0
    assert metrics["protocol.geometry.dim"] == 4


def test_comparator_catches_a_perturbed_d():
    _, records = traced_trials(small_doc())
    reference = [checks.record_row(rec) for rec in records]
    rows = copy.deepcopy(reference)
    assert checks.compare_rows(reference, rows) == []
    rows[2]["d"] += 1e-12
    assert checks.compare_rows(reference, rows) == []
    rows[2]["d"] += 1e-6
    errors = checks.compare_rows(reference, rows)
    assert len(errors) == 1 and errors[0].startswith("row 2: d ")
    rows = copy.deepcopy(reference)
    rows[0]["reason"] += "_changed"
    assert checks.compare_rows(reference, rows)
    assert checks.compare_rows(reference, rows[:-1])


def test_invariants_flag_impossible_rows():
    _, records = traced_trials(small_doc())
    row = checks.record_row(records[0])
    assert checks.invariant_errors(row) == []
    assert checks.invariant_errors(dict(row, d=2.5))
    assert checks.invariant_errors(
        dict(row, d=0.5, atypical=0.0, d2=0.1, d3=0.1)
    )
    assert checks.invariant_errors(dict(row, degenerate=not row["degenerate"]))


def test_computed_nbytes_counts_each_buffer_once():
    import numpy as np

    a = np.zeros((4, 4))
    view = a[:2]
    assert checks.computed_nbytes({"x": a, "y": [a, view]}) == a.nbytes
    seen = set()
    assert checks.computed_nbytes([a], seen) == a.nbytes
    assert checks.computed_nbytes((a, np.ones(3)), seen) == 24
