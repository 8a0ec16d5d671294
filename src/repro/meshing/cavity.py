"""Cavity operations: point location, Delaunay cavity, retriangulation.

These are the per-insertion building blocks shared by the incremental
Bowyer-Watson triangulator (:mod:`.triangulation`), the concurrent point
inserter (:mod:`.gpu_insert`) and all three DMR drivers.  The GPU-style
DMR kernel (:mod:`repro.dmr.refine`) re-implements cavity *expansion* in
a level-synchronous vectorized form but reuses :func:`retriangulate`
for the winners' rewrites, so every path shares one correctness core.

:func:`locate` and :func:`delaunay_cavity` walk one triangle at a time.
Retriangulation follows the paper's §7 lesson: :func:`retriangulate`
prepares a wave's fans in one array pass, the driver takes the winners'
fans one by one, and one :meth:`~.mesh.TriMesh.write_triangle` call
(which also prices quality flags) and two :meth:`~.mesh.TriMesh.link`
calls write them all.  :func:`retriangulate_one` does one cavity.

All structural decisions go through exact-sign predicates in
:mod:`.geometry` (:func:`~.geometry.orient2d_exact_many` is the
row-wise form of :func:`~.geometry.orient2d`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..errors import (CavityOversized, CavitySlotsExhausted, NotStarShaped,
                      WalkStuck)
from . import geometry as geo
from .mesh import TriMesh

__all__ = ["Located", "locate", "delaunay_cavity", "cavity_boundary",
           "retriangulate", "retriangulate_one", "Fans", "CavityInfo"]


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
    return list(zip(*(v.tolist() for v in _boundary(mesh, cavity)[:4])))


def _boundary(mesh: TriMesh, cavity, owner=None) -> tuple[np.ndarray, ...]:
    """:func:`cavity_boundary` as arrays ``t, k, u, j`` plus each row's
    index into ``cavity`` (cavity order, then edge order); ``owner`` tells
    concatenated cavities apart.  Membership is a sorted-array lookup."""
    cav = np.asarray(cavity, dtype=np.int64)
    nb = mesh.nbr[cav]
    key, probe = cav, nb
    if owner is not None:
        # Owner i's key range holds no slot -1, so hull edges never match.
        base = owner * np.int64(mesh.tri.shape[0] + 1)
        key, probe = base + cav, base[:, None] + nb
    inside = np.sort(key)
    at = np.minimum(inside.searchsorted(probe), cav.size - 1)
    ti, k = (inside[at] != probe).nonzero()
    t = cav[ti]
    return t, k, nb[ti, k], mesh.nbr_edge[t, k], ti


def _prepare(mesh: TriMesh, cavity, x, y, owner=None) -> tuple:
    """Fan rows ``a, b, u, j`` (boundary edge ``(a, b)``, linked to edge
    ``j`` of ``u``) of the cavity, or of the cavities told apart by
    ``owner`` (``x``/``y`` per owner; the rows' owners are returned),
    and the first ``NotStarShaped`` per owner, by exact orientation.

    A point on a boundary edge is legal only on the mesh boundary (a hull
    split; no fan row): an interior edge whose line contains the point is
    inside both neighbors' circumcircles, so both are in the cavity."""
    t, k, u, j, ti = _boundary(mesh, cavity, owner)
    a = mesh.tri[t, k]
    b = mesh.tri[t, (k + 1) % 3]
    own = owner
    if owner is not None:
        own = owner[ti]
        x, y = x[own], y[own]
    o = geo.orient2d_exact_many(mesh.px[a], mesh.py[a], mesh.px[b],
                                mesh.py[b], x, y)
    errors = {}
    fan = o > 0
    if not fan.all():
        bad = np.flatnonzero((o < 0) | ((o == 0) & (u >= 0)))
        first = (bad[:1] if own is None else
                 bad[np.unique(own[bad], return_index=True)[1]])
        for i in first.tolist():
            what = ("new point collinear with interior cavity boundary edge"
                    if o[i] == 0 else "cavity not star-shaped around new point")
            pt = (x, y) if own is None else (float(x[i]), float(y[i]))
            errors[0 if own is None else int(own[i])] = NotStarShaped(
                f"{what} (triangle {t[i]}, edge {k[i]})",
                triangle=int(t[i]), point=pt)
        a, b, u, j = a[fan], b[fan], u[fan], j[fan]
        own = None if own is None else own[fan]
    return a, b, u, j, own, errors


def _check_slots(n: int, slots: np.ndarray) -> None:
    if n > slots.size:
        raise CavitySlotsExhausted(f"need {n} slots, got {slots.size}",
                                   requested=n, available=int(slots.size))


def _pairs(a, b, own=None) -> tuple[np.ndarray, np.ndarray]:
    """Internal fan edges: edge 1 = ``(b, p)`` of row ``i`` is edge 2 =
    ``(p, a)`` of row ``m[i]``, the row of the same fan (``own``) whose
    ``a`` is this ``b``.  Returns ``m`` and the mask of rows with one.

    The boundary is star-shaped around p, so each vertex starts at most
    one fan edge: sorting on ``a`` pairs the edges.  Unpaired edges
    (midpoint-split case) stay hull edges.
    """
    ka, kb = a, b
    if own is not None:
        span = np.int64(max(int(a.max()), int(b.max())) + 1) if a.size else 1
        ka, kb = own * span + a, own * span + b
    order = ka.argsort()
    at = np.minimum(ka.searchsorted(kb, sorter=order), ka.size - 1)
    m = order[at]
    paired = ka[m] == kb
    if own is not None:
        # Two fan edges start at one vertex only on a cavity that is no
        # simple polygon (a race-corrupted mesh), and then the sort picks
        # the partner: pair such a fan alone, as retriangulate_one would.
        sk = ka[order]
        tie = order[1:][sk[1:] == sk[:-1]]
        for q in np.unique(own[tie]).tolist():
            rows = np.flatnonzero(own == q)
            mq, pq = _pairs(a[rows], b[rows])
            m[rows], paired[rows] = rows[mq], pq
    return m, paired


def _write(mesh: TriMesh, used, a, b, p, u, j, paired, partner) -> None:
    """Write fan rows ``(a, b, p)`` into ``used``: edge 0 (the boundary
    edge, unswapped as o > 0) links to ``(u, j)``, edge 1 of ``paired``
    rows to edge 2 of ``partner``."""
    mesh.write_triangle(used, a, b, p)
    mesh.link(used, 0, u, j)
    mesh.link(used[paired], 1, partner, 2)


@dataclass
class CavityInfo:
    """Result of one retriangulation."""

    new_slots: list
    new_point: int
    old_size: int
    new_size: int


def retriangulate_one(mesh: TriMesh, cavity: list[int], x: float, y: float,
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
    a, b, u, j, _, errors = _prepare(mesh, cavity, x, y)
    if errors:
        raise errors[0]
    n = a.size
    _check_slots(n, slots)
    p = mesh.add_point(x, y)
    mesh.delete(cavity)
    used = np.asarray(slots[:n], dtype=np.int64)
    m, paired = _pairs(a, b)
    _write(mesh, used, a, b, p, u, j, paired, used[m[paired]])
    return CavityInfo(new_slots=used.tolist(), new_point=p,
                      old_size=len(cavity), new_size=n)


# Fans._rows columns (see _write); slot is -1 unless taken, not written.
_A, _B, _U, _J, _PARTNER, _SLOT, _PT = range(7)


def retriangulate(mesh: TriMesh, cavities, xs, ys) -> Fans:
    """Prepare the fans of ``cavities[i]`` around ``(xs[i], ys[i])`` in
    one array pass; see :class:`Fans`."""
    return Fans(mesh, cavities, xs, ys)


class Fans:
    """Cavities prepared for retriangulation, written in bulk.

    :meth:`take` acts as :func:`retriangulate_one` would at that moment
    (same checks, exceptions, point index and :class:`CavityInfo`), but
    :meth:`flush` writes all fans taken since the last flush with one
    :meth:`~.mesh.TriMesh.write_triangle` and two
    :meth:`~.mesh.TriMesh.link` calls; leaving a ``with`` block flushes.

    A fan is written as prepared only if no fan taken earlier from the
    batch wrote a row it reads or writes (its cavity, its outside
    neighbors, the slots it takes); otherwise the batch flushes and
    prepares it again.  So pending fans fill disjoint rows but for reused
    cavity slots, deleted before a flush writes; the mesh may grow.
    """

    def __init__(self, mesh: TriMesh, cavities, xs, ys) -> None:
        self.mesh = mesh
        self.cavities = list(cavities)
        self.x = [float(v) for v in xs]
        self.y = [float(v) for v in ys]
        self._start, self._size = [0] * len(self.x), [0] * len(self.x)
        self._rows = np.empty((0, 7), dtype=np.int64)
        self._errors: dict[int, NotStarShaped] = {}
        self._pending_cav: set[int] = set()
        self._pending_used: set[int] = set()
        self._written: set[int] = set()   # rows changed since preparation
        self._redo: set[int] = set()
        self._prepare(list(range(len(self.cavities))))

    def __enter__(self) -> Fans:
        return self

    def __exit__(self, *exc) -> None:
        self.flush()

    def _prepare(self, js: list[int]) -> None:
        """Prepare cavities ``js`` from the current mesh."""
        cavs = [self.cavities[j] for j in js]
        sizes = [len(c) for c in cavs]
        if not sum(sizes):
            return
        cav = np.fromiter(chain.from_iterable(cavs), np.int64, sum(sizes))
        a, b, u, j, own, errors = _prepare(
            self.mesh, cav, np.array([self.x[q] for q in js]),
            np.array([self.y[q] for q in js]),
            np.repeat(np.arange(len(js)), sizes))
        self._errors.update((js[q], e) for q, e in errors.items())
        m, paired = _pairs(a, b, own)
        base = self._rows.shape[0]
        rows = np.stack((a, b, u, j, np.where(paired, base + m, -1),
                         np.full(a.size, -1), np.zeros(a.size, np.int64)), 1)
        self._rows = np.concatenate((self._rows, rows))
        count = np.bincount(own, minlength=len(js))
        start = base + np.cumsum(count) - count
        for q, s, c in zip(js, start.tolist(), count.tolist()):
            self._start[q], self._size[q] = s, c

    def take(self, j: int, slots: np.ndarray) -> CavityInfo:
        """Retriangulate cavity ``j`` into ``slots`` (see the class)."""
        cav = self.cavities[j]
        if not cav:
            raise ValueError(f"cavity {j} is empty")
        slots = np.asarray(slots, dtype=np.int64)
        s, n = self._start[j], self._size[j]
        u = self._rows[s:s + n, _U].tolist()
        w = self._written
        if j in self._redo or (w and not (w.isdisjoint(cav) and w.isdisjoint(u)
                                          and w.isdisjoint(slots.tolist()))):
            self.flush()
            self._redo.discard(j)
            self._errors.pop(j, None)
            self._prepare([j])
            s, n = self._start[j], self._size[j]
            u = self._rows[s:s + n, _U].tolist()
        if j in self._errors:
            raise self._errors[j]
        _check_slots(n, slots)
        p = self.mesh.add_point(self.x[j], self.y[j])
        self._rows[s:s + n, _SLOT] = slots[:n]
        self._rows[s:s + n, _PT] = p
        new_slots = slots[:n].tolist()
        self._pending_cav.update(cav)
        self._pending_used.update(new_slots)
        w.update(new_slots, u)
        w.discard(-1)
        return CavityInfo(new_slots=new_slots, new_point=p,
                          old_size=len(cav), new_size=n)

    def replan(self, j: int, cavity: list[int], x: float, y: float) -> None:
        """Replace cavity ``j``; its fan is prepared when taken."""
        self.cavities[j] = cavity
        self.x[j], self.y[j] = float(x), float(y)
        self._redo.add(j)

    def still_bad(self, t: int) -> bool:
        """``mesh.isbad[t] and not mesh.isdel[t]`` as of the last take."""
        if t in self._pending_used:
            self.flush()
        elif t in self._pending_cav:
            return False
        return bool(self.mesh.isbad[t]) and not self.mesh.isdel[t]

    def flush(self) -> None:
        """Write every fan taken since the last flush."""
        if not self._pending_cav:
            return
        self.mesh.delete(list(self._pending_cav))
        r = np.flatnonzero(self._rows[:, _SLOT] >= 0)
        rows = self._rows[r]
        paired = rows[:, _PARTNER] >= 0
        partner = self._rows[rows[paired, _PARTNER], _SLOT]
        self._rows[r, _SLOT] = -1
        self._pending_cav.clear()
        self._pending_used.clear()
        _write(self.mesh, rows[:, _SLOT], rows[:, _A], rows[:, _B],
               rows[:, _PT], rows[:, _U], rows[:, _J], paired, partner)
