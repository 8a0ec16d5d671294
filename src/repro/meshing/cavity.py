"""Cavity operations: point location, Delaunay cavity, retriangulation.

These are the per-insertion building blocks shared by the incremental
Bowyer-Watson triangulator (:mod:`.triangulation`), the concurrent point
inserter (:mod:`.gpu_insert`) and all three DMR drivers.  The GPU-style
DMR kernel (:mod:`repro.dmr.refine`) re-implements cavity *expansion* in
a level-synchronous vectorized form but reuses :func:`retriangulate`
for the winners' rewrites, so every path shares one correctness core.

:func:`locate` and :func:`delaunay_cavity` walk one triangle at a time.
:func:`retriangulate` works per cavity in bulk, following the paper's
§7 lesson: the boundary is extracted as arrays, the whole fan is
written by one array :meth:`~.mesh.TriMesh.write_triangle` call (which
also prices the new triangles' quality flags) and linked by two array
:meth:`~.mesh.TriMesh.link` calls.

All structural decisions go through exact-sign predicates in
:mod:`.geometry` (:func:`~.geometry.orient2d_exact_many` is the
row-wise form of :func:`~.geometry.orient2d`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (CavityOversized, CavitySlotsExhausted, NotStarShaped,
                      WalkStuck)
from . import geometry as geo
from .mesh import TriMesh

__all__ = ["Located", "locate", "delaunay_cavity", "cavity_boundary",
           "retriangulate", "CavityInfo"]


@dataclass
class Located:
    """Result of a point-location walk."""

    kind: str          # "tri" (inside slot) or "hull" (escaped across edge)
    slot: int          # containing triangle, or last triangle before escape
    edge: int = -1     # for "hull": the boundary edge index crossed
    steps: int = 0     # walk length (for instrumentation)


def locate(mesh: TriMesh, start: int, x: float, y: float,
           rng: np.random.Generator | None = None,
           max_steps: int = 1_000_000) -> Located:
    """Visibility walk from triangle ``start`` toward point ``(x, y)``.

    Follows, at each triangle, an edge the point lies strictly outside
    of; with random choice among candidate edges the walk terminates on
    Delaunay meshes.  Returns the containing triangle, or the boundary
    edge through which the target escapes the mesh.
    """
    rng = rng or np.random.default_rng(12345)
    t = int(start)
    steps = 0
    while steps < max_steps:
        steps += 1
        vs = mesh.tri[t]
        outside = []
        for k in range(3):
            a, b = int(vs[k]), int(vs[(k + 1) % 3])
            if geo.orient2d(mesh.px[a], mesh.py[a], mesh.px[b], mesh.py[b],
                            x, y) < 0:
                outside.append(k)
        if not outside:
            return Located("tri", t, steps=steps)
        k = outside[0] if len(outside) == 1 else int(rng.choice(outside))
        u = int(mesh.nbr[t, k])
        if u < 0:
            return Located("hull", t, edge=k, steps=steps)
        t = u
    raise WalkStuck(f"point-location walk did not terminate "
                    f"(started at triangle {int(start)}, {steps} steps, "
                    f"target ({x}, {y}))", triangle=t, point=(x, y))


def delaunay_cavity(mesh: TriMesh, seed: int, x: float, y: float,
                    max_size: int = 100_000) -> list[int]:
    """All triangles whose circumcircle strictly contains ``(x, y)``,
    grown as a connected region from ``seed`` (which is always included:
    the seed contains the point, so its circumcircle does too)."""
    cavity = [int(seed)]
    in_cavity = {int(seed)}
    frontier = [int(seed)]
    while frontier:
        nxt = []
        for t in frontier:
            for k in range(3):
                u = int(mesh.nbr[t, k])
                if u < 0 or u in in_cavity:
                    continue
                va, vb, vc = (int(v) for v in mesh.tri[u])
                if geo.incircle(mesh.px[va], mesh.py[va], mesh.px[vb],
                                mesh.py[vb], mesh.px[vc], mesh.py[vc],
                                x, y) > 0:
                    in_cavity.add(u)
                    cavity.append(u)
                    nxt.append(u)
        frontier = nxt
        if len(cavity) > max_size:
            raise CavityOversized(
                f"cavity grew unreasonably large (> {max_size} triangles "
                f"from seed {int(seed)})", triangle=int(seed), point=(x, y))
    return cavity


def cavity_boundary(mesh: TriMesh, cavity: list[int]) -> list[tuple[int, int, int, int]]:
    """Boundary edges of a cavity as ``(t, k, u, j)`` tuples.

    ``(t, k)`` is a cavity triangle's edge whose neighbor ``u`` is
    outside the cavity (``u = -1``, ``j = -1`` on the mesh boundary).
    """
    return list(zip(*(v.tolist() for v in _boundary(mesh, cavity))))


def _boundary(mesh: TriMesh, cavity) -> tuple[np.ndarray, ...]:
    """:func:`cavity_boundary` as four arrays ``t, k, u, j``, in cavity
    order then edge order.  Membership is a sorted-array lookup."""
    cav = np.asarray(cavity, dtype=np.int64)
    nb = mesh.nbr[cav]
    inside = np.sort(cav)
    at = np.minimum(inside.searchsorted(nb), cav.size - 1)
    ti, k = (inside[at] != nb).nonzero()
    t = cav[ti]
    return t, k, nb[ti, k], mesh.nbr_edge[t, k]


@dataclass
class CavityInfo:
    """Result of one retriangulation."""

    new_slots: list
    new_point: int
    old_size: int
    new_size: int


def retriangulate(mesh: TriMesh, cavity: list[int], x: float, y: float,
                  slots: np.ndarray) -> CavityInfo:
    """Replace ``cavity`` with a fan of triangles around a new point.

    ``slots`` must provide at least ``len(boundary_edges)`` free triangle
    slots (callers obtain them from the recycle pool / array tail).  The
    cavity triangles are marked deleted; new triangles are written CCW,
    externally linked to the cavity's surroundings and internally linked
    to each other.  Boundary edges collinear with the new point (the
    hull-midpoint split case) produce no triangle — their two halves
    become new hull edges.

    The whole fan is one bulk write: one array
    :meth:`~.mesh.TriMesh.write_triangle` call, which also prices the
    fan's quality flags, and two array :meth:`~.mesh.TriMesh.link`
    calls.  The star-shape and collinearity checks use exact signs, and
    every check runs before the mesh changes: on ``NotStarShaped`` or
    ``CavitySlotsExhausted`` the mesh (points included) is untouched.

    Returns the new slots actually used (callers return extras to the
    pool).
    """
    bt, bk, bu, bj = _boundary(mesh, cavity)
    a = mesh.tri[bt, bk]
    b = mesh.tri[bt, (bk + 1) % 3]
    o = geo.orient2d_exact_many(mesh.px[a], mesh.py[a], mesh.px[b],
                                mesh.py[b], x, y)
    # New point on a boundary edge (o == 0) is legal only on the mesh
    # boundary (splitting a hull segment); interior edges whose line
    # contains p are strictly inside the circumcircles of both adjacent
    # triangles, so both sides are in the cavity and the edge is not a
    # boundary edge.
    fan = o > 0
    if not fan.all():
        bad = np.flatnonzero((o < 0) | ((o == 0) & (bu >= 0)))
        if bad.size:
            i = int(bad[0])
            t, k = int(bt[i]), int(bk[i])
            what = ("new point collinear with interior cavity boundary edge"
                    if o[i] == 0 else
                    "cavity not star-shaped around new point")
            raise NotStarShaped(f"{what} (triangle {t}, edge {k})",
                                triangle=t, point=(x, y))
        a, b, bu, bj = a[fan], b[fan], bu[fan], bj[fan]
    n = a.size
    if n > slots.size:
        raise CavitySlotsExhausted(f"need {n} slots, got {slots.size}",
                                   requested=n, available=int(slots.size))
    p = mesh.add_point(x, y)
    mesh.delete(cavity)
    used = np.asarray(slots[:n], dtype=np.int64)
    # Vertex order (a, b, p) makes edge 0 the boundary edge (a, b); the
    # exact o > 0 above means write_triangle stores it unswapped.
    mesh.write_triangle(used, a, b, p)
    mesh.link(used, 0, bu, bj)
    # Edge 1 = (b, p) of one fan triangle is edge 2 = (p, a) of the one
    # whose a is this b.  The boundary is star-shaped around p, so each
    # vertex starts at most one fan edge: sorting on a pairs the edges.
    # Edges left unpaired (midpoint-split case) stay hull edges, with the
    # nbr = -1 that write_triangle gave them.
    order = a.argsort()
    at = np.minimum(a.searchsorted(b, sorter=order), n - 1)
    m = order[at]
    paired = a[m] == b
    mesh.link(used[paired], 1, used[m[paired]], 2)
    return CavityInfo(new_slots=used.tolist(), new_point=p,
                      old_size=len(cavity), new_size=n)
