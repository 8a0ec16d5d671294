"""Incremental Bowyer-Watson Delaunay triangulation.

Builds the input meshes for DMR from scratch (the paper's inputs are
"randomly generated" triangulated meshes).  The domain is the points'
bounding box, slightly expanded; its four corners join the point set so
every insertion is interior and the final mesh tiles a rectangle — the
refinement boundary is therefore the rectangle's edge set.

Insertions go point by point: a visibility walk locates the containing
triangle (:func:`repro.meshing.cavity.locate`), the Delaunay cavity is
carved out and fan-retriangulated
(:func:`~repro.meshing.cavity.retriangulate_one`).
Points are inserted in Morton (Z-curve) order so consecutive insertions
are spatially close and walks stay short.

The result is validated against ``scipy.spatial.Delaunay`` in the test
suite (scipy is used as an *oracle* only, never in the implementation).
"""

from __future__ import annotations

import numpy as np

from ..errors import PointEscaped
from .cavity import delaunay_cavity, locate, retriangulate_one
from .mesh import TriMesh

__all__ = ["build_delaunay", "morton_order"]


def morton_order(x: np.ndarray, y: np.ndarray, bits: int = 16) -> np.ndarray:
    """Indices sorting points along a Z-order curve."""
    def spread(v: np.ndarray) -> np.ndarray:
        v = v.astype(np.uint64)
        v = (v | (v << 16)) & np.uint64(0x0000FFFF0000FFFF)
        v = (v | (v << 8)) & np.uint64(0x00FF00FF00FF00FF)
        v = (v | (v << 4)) & np.uint64(0x0F0F0F0F0F0F0F0F)
        v = (v | (v << 2)) & np.uint64(0x3333333333333333)
        v = (v | (v << 1)) & np.uint64(0x5555555555555555)
        return v

    scale = (1 << bits) - 1
    xn = ((x - x.min()) / max(np.ptp(x), 1e-300) * scale).astype(np.uint64)
    yn = ((y - y.min()) / max(np.ptp(y), 1e-300) * scale).astype(np.uint64)
    key = spread(xn) | (spread(yn) << np.uint64(1))
    return np.argsort(key, kind="stable")


def build_delaunay(x: np.ndarray, y: np.ndarray, *, margin: float = 0.05,
                   min_angle_deg: float = 30.0,
                   rng: np.random.Generator | None = None) -> TriMesh:
    """Delaunay-triangulate the points inside an expanded bounding box.

    Returns a :class:`TriMesh` whose points are the four box corners
    followed by the inputs (duplicated input points are inserted once).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 1:
        raise ValueError("need matching, non-empty coordinate arrays")
    rng = rng or np.random.default_rng(0)

    dx = max(np.ptp(x), 1e-9)
    dy = max(np.ptp(y), 1e-9)
    x0, x1 = x.min() - margin * dx, x.max() + margin * dx
    y0, y1 = y.min() - margin * dy, y.max() + margin * dy
    corners = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])

    n = x.size
    px = np.empty(n + 4)
    py = np.empty(n + 4)
    px[:4], py[:4] = corners[:, 0], corners[:, 1]
    px[4:], py[4:] = x, y
    mesh = TriMesh(px[:4].copy(), py[:4].copy(),
                   np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64),
                   min_angle_deg=min_angle_deg)
    mesh.ensure_pt_capacity(n + 4)
    mesh.ensure_tri_capacity(2 * (n + 4) + 16)

    free: list[int] = []
    order = morton_order(x, y)
    last = 0
    seen: dict[tuple[float, float], int] = {}
    for i in order.tolist():
        xi, yi = float(x[i]), float(y[i])
        if (xi, yi) in seen:
            continue
        seen[(xi, yi)] = i
        loc = locate(mesh, last, xi, yi, rng=rng)
        if loc.kind != "tri":
            raise PointEscaped(
                f"input point ({xi}, {yi}) escaped the bounding box "
                f"(walk ended at triangle {loc.slot})",
                triangle=loc.slot, point=(xi, yi))
        # Reject exact duplicates of existing vertices (incl. corners).
        dup = False
        for v in mesh.tri[loc.slot]:
            if mesh.px[v] == xi and mesh.py[v] == yi:
                dup = True
                break
        if dup:
            continue
        cavity = delaunay_cavity(mesh, loc.slot, xi, yi)
        need = len(cavity) + 4  # fan size is |cavity boundary| <= cav + 2
        while len(free) < need:
            free.append(mesh.n_tris)
            mesh.n_tris += 1
            if mesh.n_tris > mesh.tri.shape[0]:
                mesh.ensure_tri_capacity(int(mesh.tri.shape[0] * 1.5) + 8)
        slots = np.asarray(free[:need], dtype=np.int64)
        info = retriangulate_one(mesh, cavity, xi, yi, slots)
        used = set(info.new_slots)
        free = [s for s in free if s not in used] + list(cavity)
        last = info.new_slots[0]
    # Re-pack into a clean mesh (drops deleted slots, rebuilds flags).
    live = mesh.live_slots()
    packed = TriMesh(mesh.px[: mesh.n_pts].copy(), mesh.py[: mesh.n_pts].copy(),
                     mesh.tri[live].copy(), min_angle_deg=min_angle_deg)
    return packed
