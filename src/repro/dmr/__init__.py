"""Delaunay Mesh Refinement (paper Sections 2, 6.2, 8.1).

Three implementations share one mutation core (:mod:`.plan`):
:func:`~repro.dmr.refine.refine_gpu` (the simulated-GPU kernel with the
paper's optimizations as switches), :func:`~repro.dmr.sequential.refine_sequential`
(the Triangle-program role) and :func:`~repro.dmr.galois.refine_galois`
(the speculative-multicore Galois role).
"""

from .plan import (RefinePlan, apply_plan, claim_set, plan_refinement,
                   prepare_fans)
from .refine import DMRConfig, DMRResult, refine_gpu, reorder_mesh
from .sequential import SequentialResult, refine_sequential
from .galois import GaloisResult, refine_galois

__all__ = [
    "RefinePlan", "apply_plan", "claim_set", "plan_refinement",
    "prepare_fans",
    "DMRConfig", "DMRResult", "refine_gpu", "reorder_mesh",
    "SequentialResult", "refine_sequential",
    "GaloisResult", "refine_galois",
]
