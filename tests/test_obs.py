"""Unit tests for the :mod:`repro.obs` tracing subsystem: span
nesting/ordering on the modeled clock, gauge sampling, the Chrome
trace_event exporter and its schema validator, the metrics dict, and
the ``BENCH_*.json`` round-trip."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.hooks import TRACER
from repro.obs import (BENCH_SCHEMA, Tracer, TraceSchemaError, chrome_trace,
                       metrics_dict, read_bench, validate_chrome_trace,
                       write_bench, write_chrome_trace)
from repro.vgpu.instrument import trace_gauge, trace_launch, trace_span


def _launch(tr: Tracer, name: str = "k", **kw):
    kw.setdefault("items", 64)
    kw.setdefault("word_reads", 256)
    kw.setdefault("word_writes", 64)
    tr.on_launch(name, **kw)


# --------------------------------------------------------------------- #
# Span mechanics
# --------------------------------------------------------------------- #

def test_span_nesting_and_ordering():
    tr = Tracer()
    with tr.span("outer", cat="driver"):
        _launch(tr, "a")
        with tr.span("inner", cat="iteration"):
            _launch(tr, "b")
    ev = tr.closed_events()
    names = [e.name for e in ev]
    assert names.index("outer") < names.index("inner")
    outer = next(e for e in ev if e.name == "outer")
    inner = next(e for e in ev if e.name == "inner")
    assert outer.ts <= inner.ts
    assert outer.ts + outer.dur >= inner.ts + inner.dur


def test_launch_advances_modeled_clock():
    tr = Tracer()
    _launch(tr)
    light = tr.now_us
    assert light > 0
    _launch(tr, word_reads=1 << 20)  # heavier kernel, larger advance
    assert tr.now_us - light > light


def test_more_work_costs_more():
    tr = Tracer()
    cheap = tr._price_us(items=32, word_reads=32, word_writes=32, atomics=0,
                         barriers=0, launches=1, issued_lane_steps=32,
                         critical_lane_steps=1)
    dear = tr._price_us(items=32_000, word_reads=32_000, word_writes=32_000,
                        atomics=100, barriers=2, launches=1,
                        issued_lane_steps=32_000, critical_lane_steps=10)
    assert 0 < cheap < dear


def test_open_spans_are_synthesized():
    tr = Tracer()
    tr.on_span_begin("never-closed", cat="driver")
    _launch(tr)
    ev = tr.closed_events()
    open_span = next(e for e in ev if e.name == "never-closed")
    assert open_span.dur == pytest.approx(tr.now_us - open_span.ts)


def test_gauge_sampling_tracks_clock():
    tr = Tracer()
    tr.on_gauge("g", 1)
    _launch(tr)
    tr.on_gauge("g", 5)
    samples = tr.gauges["g"]
    assert [v for _, v in samples] == [1, 5]
    assert samples[0][0] < samples[1][0]


def test_geometry_emits_gauges():
    tr = Tracer()
    tr.on_geometry(28, 128)
    assert tr.blocks == 28 and tr.threads_per_block == 128
    assert tr.gauges["launch.blocks"][-1][1] == 28
    assert tr.gauges["launch.tpb"][-1][1] == 128


def test_metrics_dict_contents():
    tr = Tracer()
    with tr.span("outer", cat="driver"):
        _launch(tr, "k1")
        _launch(tr, "k1")
        _launch(tr, "k2", aborted=3)
    tr.on_gauge("occ", 7)
    m = tr.metrics()
    assert m["modeled_us"] == pytest.approx(tr.now_us)
    assert m["span.count"] == 1          # launches are not spans
    assert m["launch.k1.count"] == 2
    assert m["launch.k2.aborted"] == 3
    assert m["launch.k1.us"] > 0
    assert m["gauge.occ.last"] == 7 and m["gauge.occ.n"] == 1
    assert metrics_dict(tr) == m


# --------------------------------------------------------------------- #
# Hook-registry behaviour
# --------------------------------------------------------------------- #

def test_module_hooks_are_noops_when_inactive():
    assert TRACER.value is None
    trace_launch("k", items=4)          # must not raise
    trace_gauge("g", 1)
    with trace_span("s", cat="driver") as s:
        assert s is None


# --------------------------------------------------------------------- #
# Chrome trace exporter + schema
# --------------------------------------------------------------------- #

def _traced_tracer() -> Tracer:
    tr = Tracer()
    with tr.span("drv", cat="driver"):
        for i in range(3):
            with tr.span("it", cat="iteration", round=i):
                _launch(tr, "k")
                tr.on_gauge("occ", i)
    return tr


def test_chrome_trace_validates():
    doc = chrome_trace(_traced_tracer())
    n = validate_chrome_trace(doc)
    assert n == len(doc["traceEvents"])


def test_chrome_trace_structure():
    doc = chrome_trace(_traced_tracer())
    phs = {e["ph"] for e in doc["traceEvents"]}
    assert {"M", "X", "C"} <= phs
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["modeled_us"] > 0
    assert "Tesla" in doc["otherData"]["spec"]
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert all("value" in e["args"] for e in counters)


def test_write_chrome_trace_roundtrip(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(path, _traced_tracer())
    doc = json.loads(path.read_text())
    assert validate_chrome_trace(doc) > 0


@pytest.mark.parametrize("doc", [
    {"traceEvents": "nope"},
    {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0}]},
    {"traceEvents": [{"ph": "X", "name": "", "pid": 1, "tid": 1,
                      "ts": 0, "dur": 1, "args": {}}]},
    {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1,
                      "ts": 0, "dur": -2.0, "args": {}}]},
    {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1,
                      "ts": -1, "dur": 1, "args": {}}]},
    {"traceEvents": [{"ph": "C", "name": "g", "pid": 1, "tid": 1,
                      "ts": 0, "args": {}}]},
    {"traceEvents": [{"ph": "C", "name": "g", "pid": 1, "tid": 1,
                      "ts": 0, "args": {"v": "NaNish"}}]},
    {"traceEvents": [{"ph": "X", "name": "x", "tid": 1,
                      "ts": 0, "dur": 1, "args": {}}]},
])
def test_schema_rejects_malformed(doc):
    with pytest.raises(TraceSchemaError):
        validate_chrome_trace(doc)


def test_schema_rejects_improper_nesting():
    # Two spans that overlap without containment cannot come from a
    # well-formed span stack.
    doc = {"traceEvents": [
        {"ph": "X", "name": "a", "pid": 1, "tid": 1, "ts": 0.0,
         "dur": 10.0, "args": {}},
        {"ph": "X", "name": "b", "pid": 1, "tid": 1, "ts": 5.0,
         "dur": 10.0, "args": {}},
    ]}
    with pytest.raises(TraceSchemaError):
        validate_chrome_trace(doc)


def test_schema_accepts_proper_nesting_and_siblings():
    doc = {"traceEvents": [
        {"ph": "X", "name": "a", "pid": 1, "tid": 1, "ts": 0.0,
         "dur": 10.0, "args": {}},
        {"ph": "X", "name": "b", "pid": 1, "tid": 1, "ts": 1.0,
         "dur": 4.0, "args": {}},
        {"ph": "X", "name": "c", "pid": 1, "tid": 1, "ts": 6.0,
         "dur": 4.0, "args": {}},
    ]}
    assert validate_chrome_trace(doc) == 3


# --------------------------------------------------------------------- #
# BENCH_*.json round-trip
# --------------------------------------------------------------------- #

def test_bench_write_read_roundtrip(tmp_path):
    path = tmp_path / "BENCH_fig0.json"
    runs = [{"n": 1, "gpu_s": 0.5}, {"n": 2, "gpu_s": 1.0}]
    write_bench(path, "fig0", runs)
    doc = read_bench(path)
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["figure"] == "fig0"
    assert doc["runs"] == runs


def test_bench_append_extends(tmp_path):
    path = tmp_path / "BENCH_fig0.json"
    write_bench(path, "fig0", [{"n": 1}])
    write_bench(path, "fig0", [{"n": 2}], append=True)
    assert [r["n"] for r in read_bench(path)["runs"]] == [1, 2]


def test_bench_no_append_overwrites(tmp_path):
    path = tmp_path / "BENCH_fig0.json"
    write_bench(path, "fig0", [{"n": 1}])
    write_bench(path, "fig0", [{"n": 2}], append=False)
    assert [r["n"] for r in read_bench(path)["runs"]] == [2]


def test_bench_append_onto_missing_or_corrupt(tmp_path):
    path = tmp_path / "BENCH_fig0.json"
    write_bench(path, "fig0", [{"n": 1}], append=True)  # no prior file
    assert [r["n"] for r in read_bench(path)["runs"]] == [1]
    path.write_text("{corrupt")
    write_bench(path, "fig0", [{"n": 2}], append=True)
    assert [r["n"] for r in read_bench(path)["runs"]] == [2]


def test_bench_read_rejects_wrong_schema(tmp_path):
    path = tmp_path / "BENCH_fig0.json"
    path.write_text(json.dumps({"schema": "other/9", "figure": "fig0",
                                "runs": []}))
    with pytest.raises(ValueError):
        read_bench(path)


# --------------------------------------------------------------------- #
# End-to-end: a traced driver produces a valid, gauge-bearing trace
# --------------------------------------------------------------------- #

def test_traced_driver_end_to_end(small_mesh):
    from repro.dmr import refine_gpu

    tr = Tracer()
    refine_gpu(small_mesh.copy(), tracer=tr)
    doc = chrome_trace(tr)
    validate_chrome_trace(doc)
    cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"driver", "iteration", "conflict.phase"} <= cats
    phases = {e["name"] for e in doc["traceEvents"]
              if e.get("cat") == "conflict.phase"}
    assert {"race", "prioritycheck", "check"} <= phases
    m = tr.metrics()
    assert m["modeled_us"] > 0
    assert any(k.startswith("gauge.dmr.bad_pending") for k in m)


def test_tracer_draws_no_rng(small_mesh):
    """Tracing must not consume RNG draws: the traced and untraced runs
    of the same seeded driver produce byte-identical meshes."""
    from repro.dmr import refine_gpu

    plain = small_mesh.copy()
    traced = small_mesh.copy()
    refine_gpu(plain)
    refine_gpu(traced, tracer=Tracer())
    assert plain.n_tris == traced.n_tris
    assert np.array_equal(plain.tri[:plain.n_tris],
                          traced.tri[:traced.n_tris])
