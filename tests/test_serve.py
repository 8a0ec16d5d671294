"""The serving subsystem: specs, faults, checkpoints, pool, scheduler, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.counters import OpCounter
from repro.core.engine import EngineCheckpoint, MorphStats
from repro.errors import FaultInjected
from repro.serve import (CheckpointStore, FaultInjector, FaultPlan,
                         JobContext, JobSpec, Scheduler,
                         dumps_state, estimate_cost, get_adapter,
                         known_algorithms, loads_state, order_jobs, run_job,
                         submit_batch)
from repro.serve.__main__ import main as serve_main

ALGO_PARAMS = {
    "dmr": {"n_triangles": 100},
    "insertion": {"n_triangles": 80, "n_points": 4},
    "sp": {"num_vars": 50},
    "pta": {"num_vars": 30, "num_constraints": 50},
    "mst": {"num_nodes": 50, "num_edges": 160},
    "engine": {"num_nodes": 40},
}


class TestRegistry:
    def test_known_algorithms(self):
        assert set(known_algorithms()) == set(ALGO_PARAMS)

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            get_adapter("bogus")

    @pytest.mark.parametrize("algo", sorted(ALGO_PARAMS))
    def test_adapter_runs_and_is_deterministic(self, algo):
        spec = JobSpec(name=f"t-{algo}", algorithm=algo,
                       params=ALGO_PARAMS[algo], seed=5)
        a, b = run_job(spec), run_job(spec)
        assert a.ok and b.ok
        assert a.result.digest == b.result.digest
        assert a.result.counter_totals() == b.result.counter_totals()

    def test_spec_round_trips_through_json(self):
        spec = JobSpec(name="j", algorithm="engine", params={"num_nodes": 9},
                       strategy={"ensure_progress": True}, seed=3,
                       timeout_s=1.5, retries=1, checkpoint_every=2,
                       fault=FaultPlan(kind="delay", attempts=(1, 2),
                                       delay_s=0.01))
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec


class TestFaults:
    def test_kill_fires_only_on_listed_attempts(self):
        plan = FaultPlan(kind="kill", attempts=(2,))
        FaultInjector(plan, attempt=1).on_job_start()      # no fire
        with pytest.raises(FaultInjected):
            FaultInjector(plan, attempt=2).on_job_start()

    def test_round_granular_kill(self):
        plan = FaultPlan(kind="kill", attempts=(1,), at_round=3)
        inj = FaultInjector(plan, attempt=1)
        inj.on_job_start()
        inj.on_round(2)
        with pytest.raises(FaultInjected):
            inj.on_round(3)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(kind="explode")

    def test_pool_retries_after_kill(self):
        spec = JobSpec(name="flaky", algorithm="mst",
                       params=ALGO_PARAMS["mst"], seed=1, retries=2,
                       backoff_s=0.0,
                       fault=FaultPlan(kind="kill", attempts=(1,)))
        rec = run_job(spec)
        assert rec.ok and rec.attempts == 2
        assert len(rec.failures) == 1 and "FaultInjected" in rec.failures[0]
        clean = run_job(JobSpec(name="clean", algorithm="mst",
                                params=ALGO_PARAMS["mst"], seed=1))
        assert rec.result.digest == clean.result.digest
        assert rec.result.counter_totals() == clean.result.counter_totals()

    def test_retries_exhausted(self):
        spec = JobSpec(name="doomed", algorithm="mst",
                       params=ALGO_PARAMS["mst"], seed=1, retries=1,
                       backoff_s=0.0,
                       fault=FaultPlan(kind="kill", attempts=(1, 2)))
        rec = run_job(spec)
        assert not rec.ok and rec.attempts == 2 and len(rec.failures) == 2


class TestCheckpointStore:
    def test_save_load_clear(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("job-a", {"round": 4})
        assert store.load("job-a") == {"round": 4}
        store.clear("job-a")
        assert store.load("job-a") is None

    def test_corrupt_file_is_quarantined_and_raises(self, tmp_path):
        from repro.errors import CorruptCheckpoint, ReproError

        store = CheckpointStore(tmp_path)
        store.path("bad").write_bytes(b"not a pickle")
        with pytest.raises(CorruptCheckpoint) as exc_info:
            store.load("bad")
        assert isinstance(exc_info.value, ReproError)
        # evidence preserved, slot freed
        assert not store.path("bad").exists()
        quarantined = exc_info.value.quarantined
        assert quarantined is not None and quarantined.exists()
        assert quarantined.read_bytes() == b"not a pickle"
        # the slot is usable again: no file -> clean None, no raise
        assert store.load("bad") is None

    def test_corrupt_checkpoint_falls_back_to_clean_restart(self, tmp_path):
        """A poisoned checkpoint must not wedge the job: the pool treats
        it as no-checkpoint and the attempt restarts from round zero."""
        store = CheckpointStore(tmp_path)
        store.path("resumable").write_bytes(b"\x80garbage")
        rec = run_job(_engine_spec(), checkpoint_dir=str(tmp_path))
        clean = run_job(_engine_spec(name="clean"))
        assert rec.ok and rec.resumed_round == 0
        assert rec.result.digest == clean.result.digest

    def test_job_names_are_sanitized(self, tmp_path):
        store = CheckpointStore(tmp_path)
        p = store.path("../evil job")
        assert p.parent == store.root and "/" not in p.stem

    def test_versioned_history_is_pruned_to_keep_latest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_latest=3)
        for v in range(1, 8):
            store.save("sess", {"batch": v}, version=v)
        assert store.versions("sess") == [5, 6, 7]
        # load() prefers the newest version; explicit versions still work
        assert store.load("sess") == {"batch": 7}
        assert store.load("sess", version=5) == {"batch": 5}
        assert store.load("sess", version=2) is None

    def test_pruning_is_per_job_and_spares_unversioned_slot(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_latest=2)
        store.save("a", {"round": 1})                 # unversioned slot
        for v in range(1, 5):
            store.save("a", {"v": v}, version=v)
            store.save("b", {"v": v}, version=v)
        assert store.versions("a") == [3, 4]
        assert store.versions("b") == [3, 4]          # pruned independently
        assert store.path("a").exists()               # slot never pruned
        store.clear("a")
        assert store.versions("a") == [] and not store.path("a").exists()
        assert store.versions("b") == [3, 4]          # clear is per job too

    @given(round_=st.integers(0, 1000), stalled=st.integers(0, 5),
           payload=st.lists(st.integers(-2**31, 2**31 - 1), max_size=16))
    @settings(max_examples=40, deadline=None)
    def test_engine_checkpoint_round_trip(self, round_, stalled, payload):
        stats = MorphStats()
        stats.rounds = round_
        rng = np.random.default_rng(round_)
        ck = EngineCheckpoint(round=round_, stats=stats, counter=OpCounter(),
                              rng_state=rng.bit_generator.state,
                              payload=np.array(payload, dtype=np.int64),
                              stalled=stalled)
        back = loads_state(dumps_state(ck))
        assert back.round == ck.round and back.stalled == ck.stalled
        assert back.stats.rounds == stats.rounds
        assert back.rng_state == ck.rng_state
        assert np.array_equal(back.payload, ck.payload)


def _engine_spec(**kw):
    base = dict(name="resumable", algorithm="engine",
                params={"num_nodes": 80, "num_edges": 240}, seed=21,
                retries=2, backoff_s=0.0, checkpoint_every=2)
    base.update(kw)
    return JobSpec(**base)


class TestCheckpointResume:
    def test_killed_job_resumes_and_matches_uninterrupted(self, tmp_path):
        interrupted = run_job(
            _engine_spec(fault=FaultPlan(kind="kill", attempts=(1,),
                                         at_round=4)),
            checkpoint_dir=str(tmp_path))
        clean = run_job(_engine_spec(name="clean", fault=None))
        assert interrupted.ok and interrupted.attempts == 2
        assert interrupted.resumed_round > 0
        assert interrupted.result.digest == clean.result.digest
        assert interrupted.result.summary == clean.result.summary
        assert (interrupted.result.counter_totals()
                == clean.result.counter_totals())

    def test_checkpoint_cleared_after_success(self, tmp_path):
        run_job(_engine_spec(fault=FaultPlan(kind="kill", attempts=(1,),
                                             at_round=4)),
                checkpoint_dir=str(tmp_path))
        assert not CheckpointStore(tmp_path).path("resumable").exists()

    def test_timeout_is_retryable(self, tmp_path):
        rec = run_job(_engine_spec(name="slow", timeout_s=0.0, retries=0),
                      checkpoint_dir=str(tmp_path))
        assert not rec.ok
        assert any("JobTimeout" in f for f in rec.failures)


class TestScheduler:
    def _batch(self):
        return [JobSpec(name=f"{algo}", algorithm=algo, params=params,
                        seed=2)
                for algo, params in sorted(ALGO_PARAMS.items())]

    def test_sjf_orders_by_static_cost(self):
        specs = self._batch()
        ordered = order_jobs(specs, "sjf")
        costs = [estimate_cost(s) for s in ordered]
        assert costs == sorted(costs)
        assert sorted(s.name for s in ordered) == sorted(
            s.name for s in specs)

    def test_fifo_preserves_order(self):
        specs = self._batch()
        assert [s.name for s in order_jobs(specs, "fifo")] == \
            [s.name for s in specs]

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            order_jobs([], "lifo")

    def test_inline_and_pool_digests_match(self):
        specs = self._batch()[:3]
        inline = {r.spec.name: r.result.digest
                  for r in submit_batch(specs, workers=0)}
        pooled = {r.spec.name: r.result.digest
                  for r in submit_batch(specs, workers=2)}
        assert inline == pooled

    def test_batch_report_and_tracer(self):
        from repro.obs import Tracer

        tracer = Tracer()
        sched = Scheduler(workers=0, policy="sjf", tracer=tracer)
        report = sched.run_batch(self._batch()[:2])
        assert report.ok and report.wall_s > 0
        assert "digest" in report.table()
        spans = [e for e in tracer.events if e.name == "serve.job"]
        assert len(spans) == 2
        assert "serve.queue_depth" in tracer.gauges
        assert len(tracer.gauges["serve.service_s"]) == 2


class TestCLI:
    def test_cli_runs_example_jobfile(self, tmp_path, capsys):
        jobfile = tmp_path / "jobs.json"
        jobfile.write_text(json.dumps({"jobs": [
            {"name": "m", "algorithm": "mst",
             "params": {"num_nodes": 40, "num_edges": 120}, "seed": 9},
            {"name": "flaky", "algorithm": "engine",
             "params": {"num_nodes": 40}, "seed": 9,
             "checkpoint_every": 2, "retries": 2, "backoff_s": 0.0,
             "fault": {"kind": "kill", "attempts": [1], "at_round": 3}},
        ]}))
        out = tmp_path / "report.json"
        rc = serve_main([str(jobfile), "--workers", "0", "--policy", "sjf",
                         "--checkpoint-dir", str(tmp_path / "ckpt"),
                         "--streams", "2", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "virtual streams (2)" in stdout
        data = json.loads(out.read_text())
        assert data["ok"] and len(data["jobs"]) == 2
        flaky = next(j for j in data["jobs"] if j["name"] == "flaky")
        assert flaky["attempts"] == 2 and flaky["resumed_round"] > 0

    def test_cli_exit_one_on_failure(self, tmp_path, capsys):
        jobfile = tmp_path / "jobs.json"
        jobfile.write_text(json.dumps([
            {"name": "doomed", "algorithm": "mst",
             "params": {"num_nodes": 30, "num_edges": 90}, "seed": 1,
             "retries": 0, "backoff_s": 0.0,
             "fault": {"kind": "kill", "attempts": [1]}}]))
        assert serve_main([str(jobfile)]) == 1
        assert "FAILED doomed" in capsys.readouterr().err

    def test_repo_example_jobfile_parses(self):
        from pathlib import Path

        from repro.serve.__main__ import load_jobs

        path = Path(__file__).resolve().parent.parent / \
            "examples" / "serve_jobs.json"
        specs = load_jobs(path)
        assert len(specs) >= 4
        assert any(s.fault is not None for s in specs)
