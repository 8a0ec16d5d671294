"""Tests of the benchmark itself, at smoke size.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dmr_refine
import gateway_http
import run as bench
import solver_mix
from measure import Outcome
from spans import Recorder, patched, self_times

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYERS = [m["name"] for m in SPEC["per_layer"]]
SEED = 5


def smoke(workload: str, trace: bool, recorder=None) -> Outcome:
    if workload == "dmr-refine":
        return dmr_refine.run(SEED, 0.1, trace, triangles=300, setup_reps=2,
                              recorder=recorder)
    if workload == "solver-mix":
        return solver_mix.run(SEED, 0.1, trace, scale=50, setup_reps=2,
                              recorder=recorder)
    return gateway_http.run(SEED, 0.1, trace, per_pass=5, setup_reps=2,
                            trace_passes=1, recorder=recorder)


#: a per-layer count each workload must drive above zero
OWN_LAYER = {"dmr-refine": "meshing.write_triangle.calls",
             "solver-mix": "satsp.survey_iteration.calls",
             "gateway-http": "gateway.journal.append.calls"}


def test_benchmark_json_declares_the_workloads_the_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert "setup_s" in E2E
    assert max(m["bound"] for m in SPEC["end_to_end"]) == \
        next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    out = smoke(workload, trace=False)
    values, samples = bench.end_to_end(out)
    assert sorted(values) == sorted(E2E)
    for name, value in values.items():
        assert math.isfinite(value) and value > 0, (name, value)
        assert samples[name] >= 1
    assert out.tally.attempted >= 1
    assert out.tally.failed == 0, out.tally.failures
    assert out.digests


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_traced_run_emits_every_per_layer_metric(workload):
    rec = Recorder()
    out = smoke(workload, trace=True, recorder=rec)
    values = bench.per_layer(out, LAYERS)
    assert list(values) == LAYERS
    assert all(math.isfinite(v) for v in values.values())
    assert values[OWN_LAYER[workload]] > 0
    for other, layer in OWN_LAYER.items():
        if other != workload:
            assert values[layer] == 0, (workload, layer)
    assert out.tally.failed == 0, out.tally.failures
    assert rec.spans


def _targets(module):
    if module is gateway_http:
        return module.trace_targets(Recorder())
    return module.trace_targets()


@pytest.mark.parametrize("workload,module", [
    ("dmr-refine", dmr_refine), ("solver-mix", solver_mix),
    ("gateway-http", gateway_http)])
def test_traced_run_restores_every_wrapped_function(workload, module):
    before = {(t[0], t[1]): vars(t[0])[t[1]] for t in _targets(module)}
    smoke(workload, trace=True, recorder=Recorder())
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, (owner, attr)


def test_patched_restores_after_an_error():
    import repro.dmr.plan as plan

    original = plan.retriangulate
    with pytest.raises(RuntimeError):
        with patched(Recorder(), [(plan, "retriangulate", "x")]):
            assert plan.retriangulate is not original
            raise RuntimeError("boom")
    assert plan.retriangulate is original


def test_self_time_subtracts_children():
    spans = [[1, "outer", 0.0, 10.0, 0, None],
             [2, "inner", 1.0, 4.0, 1, None],
             [3, "inner", 5.0, 6.0, 1, None],
             [4, "leaf", 2.0, 3.0, 2, None]]
    own = self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


@pytest.mark.parametrize("workload", ["dmr-refine", "solver-mix"])
def test_one_seed_gives_identical_digests_and_modeled_time(workload):
    a, b = smoke(workload, trace=False), smoke(workload, trace=False)
    assert a.digests == b.digests
    assert a.modeled == b.modeled and a.modeled


def test_wrong_mst_weight_counts_as_failure(monkeypatch):
    import repro.mst

    real = repro.mst.boruvka_gpu

    def off_by_one(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, total_weight=res.total_weight + 1)

    monkeypatch.setattr(repro.mst, "boruvka_gpu", off_by_one)
    out = smoke("solver-mix", trace=False)
    bad = [f for f in out.tally.failures if "equals kruskal=False" in f]
    assert len(bad) == len(solver_mix.GRAPHS)


def _job_request(digest: str | None, status: int = 200):
    req = gateway_http.make_request(SEED, 0, 0)
    req.status = status
    req.reply = {"status": "ok", "digest": digest}
    return req


def test_corrupted_gateway_digest_counts_as_failure():
    from repro.serve.jobs import JobSpec
    from repro.serve.pool import run_job

    good = _job_request(None)
    good.reply["digest"] = run_job(
        JobSpec.from_dict(good.body["job"])).result.digest
    bad = _job_request("0" * 64)
    refused = _job_request(None, status=429)
    out = Outcome()
    gateway_http.check(out, [good, bad, refused])
    assert out.tally.attempted == 3
    assert out.tally.failed == 2
    assert "inline replay" in out.tally.failures[0]
    assert "HTTP 429" in out.tally.failures[1]


def test_cli_without_program_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solver-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_predictions_cover_every_declared_metric():
    pred = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    covered = [m for row in pred["layers"] for m in row["metrics"]]
    assert sorted(covered) == sorted(LAYERS)
    assert sorted(pred["end_to_end"]) == sorted(E2E)
    names = set(bench.WORKLOADS)
    for row in pred["layers"]:
        assert set(row["on"]) <= names and set(row["unchanged"]) <= names
        assert set(row["moves"]) <= set(E2E)
