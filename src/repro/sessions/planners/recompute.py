"""Session planner for the trajectory-bound algorithms: full recompute.

SP, speculative insertion and the engine's speculative recoloring each
draw one RNG trajectory over the whole input — message initialization
and decimation order, insertion round schedules, speculation order and
conflict-loser retries — so a one-element edit can lawfully move the
answer anywhere, and no local recompute can reproduce the cold result
byte-for-byte.  Their planner therefore does no delta work on solver
internals.  It keeps the mutated input, applies each batch's ops to
it, serves a batch that changes nothing from cache, and otherwise runs
the cold adapter's own solve half (``job_solve`` in
:mod:`repro.satsp.sp` and :mod:`repro.meshing.gpu_insert`,
:func:`repro.serve.jobs.engine_solve`) on it — so the session/cold
differential holds by construction.

Each algorithm keeps a dirty-region function
``(input, ops) -> (input', dirty, population)`` that measures what a
delta pass would have to redo, so the ``sessions.dirty_fraction``
gauge quantifies exactly what a trajectory-independent solver would
unlock:

* ``sp`` — variables reachable from the mutated clauses through
  clause-variable incidence, out of all variables;
* ``engine`` — endpoints of added, dropped or reweighted edges, out of
  all nodes;
* ``insertion`` — the per-op change in point count, out of the points.
"""

from __future__ import annotations

import numpy as np

from ...serve.jobs import JobContext
from ...serve.mutations import (apply_clause_mutations_tracked,
                                apply_graph_mutations_tracked,
                                apply_point_mutations)
from . import BatchOutcome

__all__ = ["RecomputePlanner", "reachable_variables"]


def reachable_variables(vars_: np.ndarray, num_vars: int,
                        seed_vars: np.ndarray) -> int:
    """Variables reachable from ``seed_vars`` through shared clauses.

    ``vars_`` is the ``(clauses, k)`` CNF variable matrix; reachability
    is the transitive closure of "appears in a clause with", the sound
    invalidation region for message passing.
    """
    if num_vars == 0 or seed_vars.size == 0:
        return 0
    reached = np.zeros(num_vars, dtype=bool)
    reached[seed_vars] = True
    if vars_.size == 0:
        return int(reached.sum())
    while True:
        before = int(reached.sum())
        hit = reached[vars_].any(axis=1)
        reached[np.unique(vars_[hit])] = True
        if int(reached.sum()) == before:
            return before


def _clause_dirty(cnf, ops):
    cnf, touched = apply_clause_mutations_tracked(cnf, ops)
    return (cnf, reachable_variables(cnf.vars, cnf.num_vars, touched),
            cnf.num_vars)


def _edge_dirty(graph, ops):
    n, lo, hi, w = graph
    new_lo, new_hi, new_w, eff = apply_graph_mutations_tracked(
        n, lo, hi, w, ops)
    changed = np.flatnonzero(eff.changed)
    dropped = eff.index_map < 0
    dirty = np.unique(np.concatenate([new_lo[changed], new_hi[changed],
                                      lo[dropped], hi[dropped]]))
    return (n, new_lo, new_hi, new_w), int(dirty.size), n


def _point_dirty(points, ops):
    x, y = points
    dirty = 0
    for op in ops:
        before = x.size
        x, y = apply_point_mutations(x, y, [op])
        dirty += abs(x.size - before)
    return (x, y), dirty, max(int(x.size), 1)


def _halves(algorithm: str):
    """``(input half, solve half, dirty-region function)`` of one
    recompute algorithm (lazy imports: a session pays only for its own
    driver stack)."""
    if algorithm == "sp":
        from ...satsp.sp import job_input, job_solve
        return job_input, job_solve, _clause_dirty
    if algorithm == "engine":
        from ...serve.jobs import engine_input, engine_solve
        return engine_input, engine_solve, _edge_dirty
    if algorithm == "insertion":
        from ...meshing.gpu_insert import job_input, job_solve
        return job_input, job_solve, _point_dirty
    raise KeyError(f"no recompute planner for algorithm {algorithm!r}")


class RecomputePlanner:
    """Session state + full recompute for ``sp``, ``engine`` and
    ``insertion``."""

    def __init__(self, algorithm: str, params, strategy, seed: int) -> None:
        self.algorithm = algorithm
        self.params = dict(params)
        self.strategy = dict(strategy)
        self.seed = int(seed)
        self.arrays: tuple = ()
        self.summary: dict = {}

    def open(self, counter, resilience=None) -> None:
        make_input, _, _ = _halves(self.algorithm)
        self.input = make_input(self.params, self.seed)
        self._solve(counter, resilience)

    def _solve(self, counter, resilience) -> None:
        _, solve, _ = _halves(self.algorithm)
        self.arrays, self.summary = solve(
            self.input, self.params, self.strategy, self.seed,
            JobContext(counter=counter, resilience=resilience))

    def apply_batch(self, ops, counter, threshold: float,
                    resilience=None) -> BatchOutcome:
        _, _, dirty_region = _halves(self.algorithm)
        self.input, dirty, population = dirty_region(self.input, ops)
        if dirty == 0:
            return BatchOutcome(mode="cached", dirty=0,
                                population=population,
                                note="batch left the input unchanged")
        self._solve(counter, resilience)
        return BatchOutcome(
            mode="full", dirty=dirty, population=population,
            note="the driver follows one global RNG trajectory; only a "
                 "full solve reproduces the cold result")
