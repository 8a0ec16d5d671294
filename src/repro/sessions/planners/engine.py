"""Session planner for the generic engine's speculative recoloring.

Speculative recoloring is the engine's checkpoint-bearing reference
workload, and its result is trajectory-shaped: round membership,
speculation order, and conflict-loser retries all flow from one RNG
stream over the whole graph, so a one-edge change can lawfully recolor
distant nodes.  The planner keeps the edge list incrementally (via
:func:`repro.serve.mutations.apply_graph_mutations_tracked`), measures
the dirty region as the nodes incident to changed edges, serves
unchanged batches from cache, and otherwise recomputes fully with the
exact cold-adapter discipline (same CSR build, same color-init and
engine RNG seeds).
"""

from __future__ import annotations

import numpy as np

from ...hooks import instrumented
from ...serve.mutations import (apply_graph_mutations,
                                apply_graph_mutations_tracked,
                                check_mutations)
from . import BatchOutcome

__all__ = ["EnginePlanner"]


class EnginePlanner:
    """Session state + conservative recompute for ``algorithm="engine"``."""

    algorithm = "engine"

    def __init__(self, params, strategy, seed: int) -> None:
        self.params = dict(params)
        self.strategy = dict(strategy)
        self.seed = int(seed)
        self.arrays: tuple = ()
        self.summary: dict = {}

    def open(self, counter, resilience=None) -> None:
        from ...graphgen import random_graph

        p = self.params
        num_nodes = int(p.get("num_nodes", 200))
        num_edges = int(p.get("num_edges", 3 * num_nodes))
        self.n, self.lo, self.hi, self.w = random_graph(
            num_nodes, num_edges, seed=self.seed)
        mutations = check_mutations("engine", p.get("mutations", ()))
        if mutations:
            self.lo, self.hi, self.w = apply_graph_mutations(
                self.n, self.lo, self.hi, self.w, mutations)
        self._solve_full(counter, resilience)

    def _solve_full(self, counter, resilience) -> None:
        from ...core.engine import run_morph_rounds
        from ...graphgen import undirected_edges_to_csr
        from ...serve.jobs import _ServeColoring

        g = undirected_edges_to_csr(self.n, self.lo, self.hi, self.w)
        colors = np.random.default_rng(self.seed).integers(0, 2, size=self.n)
        work = _ServeColoring(g, colors)
        rng = np.random.default_rng(self.seed + 1)
        with instrumented(resilience=resilience):
            stats = run_morph_rounds(
                work.conflicted, work.plan, work.apply,
                lambda: g.num_nodes, rng=rng, counter=counter,
                kernel="serve.recolor",
                ensure_progress=bool(
                    self.strategy.get("ensure_progress", True)),
                max_rounds=int(self.params.get("max_rounds", 1_000_000)),
                resilience=resilience,
            )
        self.arrays = (work.colors,)
        self.summary = {"rounds": stats.rounds, "applied": stats.applied,
                        "aborted": stats.aborted,
                        "num_colors": int(work.colors.max()) + 1,
                        "proper": not work.conflicted()}

    def apply_batch(self, ops, counter, threshold: float,
                    resilience=None) -> BatchOutcome:
        old_lo, old_hi, old_edges = self.lo, self.hi, self.lo.size
        self.lo, self.hi, self.w, eff = apply_graph_mutations_tracked(
            self.n, old_lo, old_hi, self.w, ops)

        identity = (self.lo.size == old_edges and not eff.changed.any()
                    and bool((eff.index_map
                              == np.arange(old_edges)).all()))
        if identity:
            return BatchOutcome(mode="cached", dirty=0, population=self.n,
                                note="batch left the edge list unchanged")

        dropped = eff.index_map < 0
        changed = np.flatnonzero(eff.changed)
        dirty_nodes = np.unique(np.concatenate([
            self.lo[changed], self.hi[changed],
            old_lo[dropped], old_hi[dropped]]))
        self._solve_full(counter, resilience)
        return BatchOutcome(
            mode="full", dirty=int(dirty_nodes.size), population=self.n,
            note="speculative recoloring follows one global RNG "
                 "trajectory; only a full rerun reproduces the cold result")
