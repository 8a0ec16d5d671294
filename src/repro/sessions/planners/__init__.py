"""Per-algorithm delta planners for incremental sessions.

A planner owns one session's resumable input state (edge list,
constraint set, CNF, point batch, or staged mesh) and knows, for each
mutation batch, how much of the previous answer survives:

* :mod:`~repro.sessions.planners.mst` — maintains the component forest
  and re-runs Boruvka only on a sparsified candidate edge set (the
  incremental-connectivity design: surviving tree edges + changed
  edges + forest-crossing edges);
* :mod:`~repro.sessions.planners.pta` — warm-starts the Andersen
  fixed point, re-seeding the worklist from constraint-graph nodes the
  new constraints touch (adds are monotone; drops force a full solve);
* :mod:`~repro.sessions.planners.mesh` — DMR keeps the *unrefined*
  staged mesh so new ``insert_points`` ops replay incrementally before
  re-refinement;
* :mod:`~repro.sessions.planners.recompute` — one planner for SP,
  insertion and the engine: it keeps the mutated input, measures the
  dirty region honestly (clause-reachability closure, endpoints of
  changed edges, point-count change), serves no-op batches from cache
  and otherwise runs the cold adapter's own solve half, because these
  drivers' results depend on a global RNG trajectory that no local
  recompute can reproduce.

Every planner upholds the differential guarantee: after ``apply_batch``
its ``arrays`` are byte-identical to what the algorithm's cold
:mod:`repro.serve` adapter returns on the equivalently mutated input.
A planner that cannot do that incrementally for some batch must say so
(``mode="full"``) and recompute — never guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

__all__ = ["BatchOutcome", "planner_for", "planned_algorithms"]


@dataclass
class BatchOutcome:
    """What one ``apply_batch`` did and how dirty the input was.

    ``mode`` is ``"delta"`` (recomputed only the affected region),
    ``"full"`` (fell back to a cold recompute — non-monotone mutation,
    trajectory-dependent driver, or dirty fraction above the session
    threshold), or ``"cached"`` (the batch changed nothing; the
    previous answer was served as-is).
    """

    mode: str
    #: elements of the input the batch invalidated (algorithm-specific
    #: unit: candidate edges, constraints, reachable variables, points)
    dirty: int
    #: population the dirty count is measured against
    population: int
    note: str = ""

    @property
    def dirty_fraction(self) -> float:
        return self.dirty / self.population if self.population else 0.0


def planner_for(algorithm: str):
    """The planner factory for ``algorithm``: called with ``(params,
    strategy, seed)`` it builds the session's planner (lazy imports —
    a session should only pay for the one driver stack it uses)."""
    if algorithm == "mst":
        from .mst import MstPlanner
        return MstPlanner
    if algorithm == "pta":
        from .pta import PtaPlanner
        return PtaPlanner
    if algorithm == "dmr":
        from .mesh import DmrPlanner
        return DmrPlanner
    if algorithm in ("engine", "insertion", "sp"):
        from .recompute import RecomputePlanner
        return partial(RecomputePlanner, algorithm)
    raise KeyError(
        f"no session planner for algorithm {algorithm!r}; known: "
        f"{', '.join(planned_algorithms())}")


def planned_algorithms() -> list[str]:
    return ["dmr", "engine", "insertion", "mst", "pta", "sp"]
