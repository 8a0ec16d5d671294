"""The :mod:`repro.sessions` differential gate.

The contract under test is the one the subsystem is built around:
after **every** applied batch, a session's arrays-only digest is
byte-identical to a cold full recompute on the equivalently mutated
input (the serve adapter run with all mutations concatenated).  The
gate drives that check across every algorithm with a planner, ≥3 seeds
and ≥3 batches each, plus the surrounding machinery: the
threshold escape hatch, empty-batch no-ops, checkpoint/resume (inline
and kill-resume through the pool), the serve integration, the
mutation-log compaction guard, observability gauges, and the
delta-vs-full modeled-cost win on MST and PTA.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import EngineCheckpoint
from repro.errors import SessionStateError
from repro.obs import Tracer
from repro.serve import CheckpointStore, Scheduler
from repro.serve.jobs import JobSpec, estimate_cost
from repro.sessions import (DEFAULT_FULL_THRESHOLD, MutationLog, Session,
                            SessionSpec, planned_algorithms, planner_for)
from repro.sessions.planners.mst import forest_components

pytestmark = pytest.mark.session


# --------------------------------------------------------------------- #
# Small streams per algorithm: ≥3 batches, mixed op vocabulary
# --------------------------------------------------------------------- #

STREAMS = {
    "mst": ({"num_nodes": 160, "num_edges": 640},
            [[{"op": "add_edges", "count": 6, "seed": 1}],
             [{"op": "reweight_edges", "count": 5, "seed": 2}],
             [{"op": "drop_edges", "count": 4, "seed": 3}]]),
    "pta": ({"num_vars": 120, "num_constraints": 420},
            [[{"op": "add_constraints", "count": 5, "seed": 1}],
             [{"op": "add_constraints", "count": 5, "seed": 2}],
             [{"op": "drop_constraints", "count": 3, "seed": 3}]]),
    "sp": ({"num_vars": 50, "num_clauses": 170},
           [[{"op": "add_clauses", "count": 5, "seed": 1}],
            [{"op": "drop_clauses", "count": 3, "seed": 2}],
            [{"op": "add_clauses", "count": 2, "seed": 3}]]),
    "dmr": ({"num_points": 50, "threshold": 22.0},
            [[{"op": "insert_points", "count": 3, "seed": 1}],
             [{"op": "insert_points", "count": 2, "seed": 2}],
             [{"op": "insert_points", "count": 2, "seed": 3}]]),
    "insertion": ({"num_points": 70},
                  [[{"op": "add_points", "count": 4, "seed": 1}],
                   [{"op": "drop_points", "count": 3, "seed": 2}],
                   [{"op": "add_points", "count": 2, "seed": 3}]]),
    "engine": ({"num_nodes": 70, "num_edges": 210},
               [[{"op": "add_edges", "count": 5, "seed": 1}],
                [{"op": "reweight_edges", "count": 4, "seed": 2}],
                [{"op": "drop_edges", "count": 3, "seed": 3}]]),
}


def _spec(algorithm, seed, *, name=None, params=None, batches=None, **kw):
    base_params, base_batches = STREAMS[algorithm]
    return SessionSpec(
        name=name or f"{algorithm}-s{seed}", algorithm=algorithm,
        params=params if params is not None else base_params,
        strategy={}, seed=seed,
        batches=batches if batches is not None else base_batches, **kw)


def test_planner_registry_covers_all_algorithms():
    assert planned_algorithms() == sorted(STREAMS)
    for algo in planned_algorithms():
        assert planner_for(algo).algorithm == algo


# --------------------------------------------------------------------- #
# The differential gate
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("algorithm", sorted(STREAMS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_differential_gate(algorithm, seed):
    """Every batch, every seed: session digest == cold full recompute."""
    session = Session.open(_spec(algorithm, seed))
    for ops in session.spec.batches:
        result = session.apply_batch(ops)
        matches, cold = session.verify_full()
        assert matches, (
            f"{algorithm} seed={seed} batch={result.batch} "
            f"mode={result.mode}: session {result.digest} != cold {cold}")


def test_sequential_composition_equals_concatenation():
    """Applying B1;B2;B3 matches a cold run with all ops concatenated —
    the property that makes a long-lived session trustworthy."""
    session = Session.open(_spec("mst", 5))
    for ops in session.spec.batches:
        session.apply_batch(ops)
    assert session.digest() == session.cold_digest()
    assert session.applied_batches == 3


def test_mst_delta_mode_actually_taken():
    """Small MST batches must go down the delta path, not fall back."""
    session = Session.open(_spec("mst", 2))
    result = session.apply_batch([{"op": "add_edges", "count": 4,
                                   "seed": 9}])
    assert result.mode == "delta"
    assert 0 < result.dirty_fraction <= DEFAULT_FULL_THRESHOLD
    assert result.summary["mst_edges"] == session.summary["mst_edges"]


def test_pta_drop_falls_back_to_full():
    """drop_constraints retracts facts; the monotone warm-start must
    refuse it and recompute."""
    session = Session.open(_spec("pta", 1))
    result = session.apply_batch([{"op": "drop_constraints", "count": 3,
                                   "seed": 4}])
    assert result.mode == "full"
    assert "non-monotone" in result.note
    assert session.verify_full()[0]


def test_threshold_escape_hatch():
    """A batch dirtying more than ``full_threshold`` of the input must
    take the full path (and still match cold)."""
    spec = _spec("mst", 3, batches=[[{"op": "reweight_edges",
                                      "count": 600, "seed": 8}]],
                 full_threshold=0.05)
    session = Session.open(spec)
    result = session.apply_batch(spec.batches[0])
    assert result.mode == "full"
    assert "threshold" in result.note
    assert session.verify_full()[0]


def test_empty_batch_is_cached_noop():
    session = Session.open(_spec("mst", 4))
    before = session.digest()
    result = session.apply_batch([])
    assert result.mode == "cached"
    assert result.dirty == 0
    assert result.cost_s == 0.0
    assert session.digest() == before
    assert session.applied_batches == 1   # still logged


def test_mst_forest_components_labels():
    comp = forest_components(6, np.array([0, 1, 3]), np.array([1, 2, 4]))
    assert comp[0] == comp[1] == comp[2]
    assert comp[3] == comp[4]
    assert comp[0] != comp[3] and comp[5] not in (comp[0], comp[3])


# --------------------------------------------------------------------- #
# Modeled-cost win (the point of the subsystem)
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("algorithm,params,batch", [
    ("mst", {"num_nodes": 4000, "num_edges": 32000},
     [{"op": "add_edges", "count": 30, "seed": 11},
      {"op": "reweight_edges", "count": 30, "seed": 12}]),
    ("pta", {"num_vars": 1500, "num_constraints": 6000},
     [{"op": "add_constraints", "count": 12, "seed": 21}]),
])
def test_small_delta_cost_win(algorithm, params, batch):
    """≤1% mutated input ⇒ ≥5x modeled-cost win over full recompute."""
    spec = _spec(algorithm, 1, name=f"{algorithm}-bench", params=params,
                 batches=[batch, batch])
    session = Session.open(spec)
    for ops in spec.batches:
        result = session.apply_batch(ops)
        assert result.mode == "delta"
        assert result.dirty_fraction <= DEFAULT_FULL_THRESHOLD
        assert result.cost_ratio <= 0.2, (
            f"{algorithm}: delta cost ratio {result.cost_ratio:.3f} "
            f"misses the 5x win")
    assert session.digest() == session.cold_digest()


# --------------------------------------------------------------------- #
# Checkpoint / resume
# --------------------------------------------------------------------- #

def test_checkpoint_resume_byte_identity(tmp_path):
    """Save mid-stream, resume, finish: digest and per-batch history
    equal an uninterrupted session's."""
    spec = _spec("mst", 6, checkpoint_every=1)
    straight = Session.open(spec)
    for ops in spec.batches:
        straight.apply_batch(ops)

    store = CheckpointStore(tmp_path)
    session = Session.open(spec)
    session.apply_batch(spec.batches[0])
    session.apply_batch(spec.batches[1])
    session.save(store)

    resumed = Session.open(spec, store=store)
    assert resumed.applied_batches == 2
    assert len(resumed.results) == 2
    resumed.apply_batch(spec.batches[2])
    assert resumed.digest() == straight.digest()
    assert ([r.digest for r in resumed.results]
            == [r.digest for r in straight.results])
    assert resumed.digest() == resumed.cold_digest()


def test_resume_refuses_mismatched_spec(tmp_path):
    store = CheckpointStore(tmp_path)
    session = Session.open(_spec("mst", 7))
    session.apply_batch(session.spec.batches[0])
    session.save(store)

    other = _spec("mst", 8, name=session.spec.name)   # same name, new seed
    with pytest.raises(SessionStateError, match="different"):
        Session.open(other, store=store)


def test_resume_refuses_engine_round_checkpoint():
    spec = _spec("mst", 9)
    foreign = EngineCheckpoint(round=3, stats=None, counter=None,
                               rng_state={}, payload={"kind": "other"})
    with pytest.raises(SessionStateError, match="not a session"):
        Session.resume(spec, foreign)


def test_store_versions_are_pruned(tmp_path):
    """Session saves flow through keep-latest-N version pruning."""
    store = CheckpointStore(tmp_path, keep_latest=2)
    spec = _spec("mst", 10, batches=[
        [{"op": "add_edges", "count": 2, "seed": s}] for s in range(4)])
    session = Session.open(spec)
    for ops in spec.batches:
        session.apply_batch(ops)
        session.save(store)
    assert store.versions(spec.name) == [3, 4]
    resumed = Session.open(spec, store=store)
    assert resumed.applied_batches == 4


# --------------------------------------------------------------------- #
# Mutation log
# --------------------------------------------------------------------- #

def test_compaction_bounds_log_and_guards_cold_check():
    spec = _spec("mst", 11, compact_after=4, batches=[
        [{"op": "add_edges", "count": 2, "seed": s},
         {"op": "reweight_edges", "count": 2, "seed": s + 50}]
        for s in range(5)])
    session = Session.open(spec)
    for ops in spec.batches:
        session.apply_batch(ops)
    log = session.log
    assert log.compacted_batches > 0
    assert sum(len(e["ops"]) for e in log.entries) <= spec.compact_after + 2
    # The cold differential needs the full history; a compacted session
    # must say so rather than silently verifying the wrong input.
    with pytest.raises(SessionStateError, match="compact"):
        session.cold_digest()


def test_mutation_log_roundtrip():
    log = MutationLog(compact_after=8)
    log.append(1, [{"op": "add_edges", "count": 1, "seed": 0}], "delta")
    log.append(2, [], "cached")
    clone = MutationLog.from_dict(log.to_dict())
    assert clone.entries == log.entries
    assert clone.compact_after == 8


# --------------------------------------------------------------------- #
# Serve integration
# --------------------------------------------------------------------- #

def test_session_spec_job_roundtrip():
    spec = _spec("mst", 12, checkpoint_every=2)
    job = spec.to_job_spec()
    assert job.params["session"]["batches"] == spec.batches
    assert job.checkpoint_every == 2
    back = SessionSpec.from_job_spec(job)
    assert back == spec
    # Session jobs must price above their static one-shot equivalent.
    one_shot = _spec("mst", 12, batches=[]).to_job_spec()
    assert estimate_cost(job) > estimate_cost(one_shot)


def test_serve_path_matches_inline_session(tmp_path):
    spec = _spec("mst", 13, checkpoint_every=1)
    inline = Session.open(spec)
    for ops in spec.batches:
        inline.apply_batch(ops)

    report = Scheduler(workers=0, checkpoint_dir=str(tmp_path)
                       ).run_sessions([spec])
    record = report.records[0]
    assert record.ok
    sess = record.result.summary["session"]
    assert sess["batches"] == 3
    assert sess["modes"] == [r.mode for r in inline.results]
    # The serve digest covers arrays + summary; its arrays come from the
    # same planner state, so the inline cold check still vouches for it.
    assert inline.digest() == inline.cold_digest()


def test_kill_resume_through_pool(tmp_path):
    """A session job killed mid-stream resumes from its checkpoint and
    lands on the same digest as an undisturbed run."""
    spec = _spec("mst", 14, checkpoint_every=1, retries=2)
    clean = Scheduler(workers=0).run_sessions([spec]).records[0]
    assert clean.ok

    job_dict = spec.to_job_spec().to_dict()
    job_dict["fault"] = {"kind": "kill", "attempts": [1], "at_round": 3}
    job = JobSpec.from_dict(job_dict)
    report = Scheduler(workers=0, checkpoint_dir=str(tmp_path)
                       ).run_batch([job])
    record = report.records[0]
    assert record.ok
    assert record.attempts == 2
    assert record.resumed_round >= 1
    assert record.result.digest == clean.result.digest


# --------------------------------------------------------------------- #
# Observability
# --------------------------------------------------------------------- #

def test_gauges_emitted_per_batch():
    tracer = Tracer()
    spec = _spec("mst", 15)
    with tracer.activate():
        session = Session.open(spec)
        for ops in spec.batches:
            session.apply_batch(ops)
    dirty = tracer.gauges["sessions.dirty_fraction"]
    ratio = tracer.gauges["sessions.cost_ratio"]
    assert len(dirty) == len(ratio) == 3
    assert all(0.0 <= v <= 1.0 for _, v in dirty)
    assert all(v >= 0.0 for _, v in ratio)
