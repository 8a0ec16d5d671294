"""Mesh-family session planner: staged DMR.

**DMR** gets real incrementality from the adapter's own structure: the
cold job applies every ``insert_points`` op to the *unrefined* mesh and
refines once at the end.  The session therefore keeps the staged
(inserted-but-unrefined) mesh as its resumable state; a new batch
replays only its *own* insert ops through the §9 GPU insertion driver —
prior batches' insertions are already in the staged mesh and are never
re-run — and then refines a copy.  The refine itself is a full pass
(cavity refinement cascades are global in the worst case), so the mode
is reported honestly as ``"delta"`` only for the staged insert phase,
with the dirty fraction measuring the new points against the staged
point population.  (Insertion sessions recompute in full:
:mod:`~repro.sessions.planners.recompute`.)
"""

from __future__ import annotations

from ...serve.mutations import check_mutations, mutation_points
from . import BatchOutcome

__all__ = ["DmrPlanner"]


class DmrPlanner:
    """Session state + staged-insert recompute for ``algorithm="dmr"``."""

    algorithm = "dmr"

    def __init__(self, params, strategy, seed: int) -> None:
        self.params = dict(params)
        self.strategy = dict(strategy)
        self.seed = int(seed)
        self.arrays: tuple = ()
        self.summary: dict = {}

    def open(self, counter, resilience=None) -> None:
        from ...meshing.generate import random_mesh

        mesh = random_mesh(int(self.params.get("n_triangles", 600)),
                           seed=self.seed)
        mutations = check_mutations("dmr",
                                    self.params.get("mutations", ()))
        self.mesh = mesh      # staged: inserted, never refined
        self._insert(mutations, counter, resilience)
        self._refine(counter, resilience)

    def _insert(self, ops, counter, resilience) -> int:
        from ...meshing.gpu_insert import gpu_insert_points

        inserted = 0
        for op in ops:
            mx, my = mutation_points(op)
            ins = gpu_insert_points(self.mesh, mx, my,
                                    seed=int(op.get("seed", 0)),
                                    counter=counter,
                                    resilience=resilience)
            self.mesh = ins.mesh
            inserted += int(mx.size)
        return inserted

    def _refine(self, counter, resilience) -> None:
        from ...dmr.refine import config_from_strategy, refine_gpu

        # Refine a copy: the staged mesh must stay unrefined so the
        # next batch's inserts land exactly where a cold run's would.
        res = refine_gpu(self.mesh.copy(),
                         config_from_strategy(self.strategy, self.seed),
                         counter=counter, resilience=resilience)
        out = res.mesh
        self.arrays = (out.tri[: out.n_tris], out.px[: out.n_pts],
                       out.py[: out.n_pts], out.isdel[: out.n_tris])
        self.summary = {"rounds": res.rounds, "processed": res.processed,
                        "points_added": res.points_added,
                        "aborted_conflicts": res.aborted_conflicts,
                        "aborted_geometry": res.aborted_geometry,
                        "converged": res.converged,
                        "triangles": int(out.num_triangles)}

    def apply_batch(self, ops, counter, threshold: float,
                    resilience=None) -> BatchOutcome:
        effective = [op for op in ops if int(op.get("count", 0)) > 0]
        if not effective:
            return BatchOutcome(mode="cached", dirty=0,
                                population=int(self.mesh.n_pts),
                                note="batch inserted no points")
        inserted = self._insert(effective, counter, resilience)
        self._refine(counter, resilience)
        return BatchOutcome(
            mode="delta", dirty=inserted, population=int(self.mesh.n_pts),
            note="staged inserts replayed incrementally; refinement is a "
                 "full pass over the mutated mesh")
