"""Tests for the mesh structure, triangulation, cavity ops, and I/O."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CavitySlotsExhausted, NotStarShaped
from repro.meshing import (TriMesh, build_delaunay, cavity_boundary,
                           delaunay_cavity, locate, random_mesh,
                           retriangulate, retriangulate_one)
from repro.meshing.edgeflip import legalize_gpu, random_legal_flips
from repro.meshing.geometry import is_bad_many, orient2d
from repro.meshing.gpu_insert import gpu_insert_points
from repro.meshing.io import load_mesh, save_mesh
from repro.meshing.triangulation import morton_order


def mesh_state(m):
    """Every array and counter a mutation may touch (full capacity)."""
    return {"n_pts": m.n_pts, "n_tris": m.n_tris, "px": m.px.copy(),
            "py": m.py.copy(), "tri": m.tri.copy(), "nbr": m.nbr.copy(),
            "nbr_edge": m.nbr_edge.copy(), "isdel": m.isdel.copy(),
            "isbad": m.isbad.copy()}


def assert_state_unchanged(m, before):
    after = mesh_state(m)
    for name, value in before.items():
        np.testing.assert_array_equal(after[name], value, err_msg=name)


def assert_quality_fresh(m):
    """Stored quality flags equal a from-scratch pricing of every live slot."""
    live = m.live_slots()
    np.testing.assert_array_equal(
        m.isbad[live], is_bad_many(*m.coords(live), m.min_angle_deg))
    m.validate()


def square_two_tris():
    px = np.array([0.0, 1.0, 1.0, 0.0])
    py = np.array([0.0, 0.0, 1.0, 1.0])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return TriMesh(px, py, tris)


class TestTriMesh:
    def test_construction(self):
        m = square_two_tris()
        assert m.num_points == 4
        assert m.num_triangles == 2
        m.validate(check_delaunay=True)

    def test_neighbors_symmetric(self):
        m = square_two_tris()
        found = False
        for t in range(2):
            for k in range(3):
                u = m.nbr[t, k]
                if u >= 0:
                    found = True
                    j = m.nbr_edge[t, k]
                    assert m.nbr[u, j] == t
        assert found

    def test_cw_input_flipped(self):
        px = np.array([0.0, 1.0, 0.0])
        py = np.array([0.0, 0.0, 1.0])
        m = TriMesh(px, py, np.array([[0, 2, 1]]))  # clockwise
        m.validate()

    def test_bad_flags(self):
        m = square_two_tris()
        # 45-45-90 triangles are fine at 30 degrees
        assert m.bad_slots().size == 0
        m2 = TriMesh(m.px, m.py, m.tri[:2].copy(), min_angle_deg=50)
        assert m2.bad_slots().size == 2

    def test_delete_and_live(self):
        m = square_two_tris()
        m.delete([0])
        assert m.num_triangles == 1
        assert m.live_slots().tolist() == [1]

    def test_out_of_range_vertex_raises(self):
        with pytest.raises(ValueError):
            TriMesh(np.zeros(2), np.zeros(2), np.array([[0, 1, 2]]))

    def test_add_point_growth(self):
        m = square_two_tris()
        for i in range(50):
            m.add_point(2.0 + i, 2.0)
        assert m.num_points == 54
        assert m.px[4] == 2.0

    def test_write_triangle_degenerate_raises(self):
        m = square_two_tris()
        m.add_point(0.5, 0.5)
        m.add_point(0.6, 0.6)
        m.add_point(0.7, 0.7)
        m.ensure_tri_capacity(4)
        with pytest.raises(ValueError):
            m.write_triangle(2, 4, 5, 6)

    def test_write_triangle_rows_reorders_clockwise_row(self):
        m = square_two_tris()
        m.ensure_tri_capacity(5)
        # (0, 1, 2) and (0, 2, 3) are CCW; (0, 3, 1) is clockwise.
        m.write_triangle([2, 3, 4], [0, 0, 0], [1, 2, 3], [2, 3, 1])
        assert m.tri[2].tolist() == [0, 1, 2]
        assert m.tri[3].tolist() == [0, 2, 3]
        assert m.tri[4].tolist() == [0, 1, 3]
        assert m.n_tris == 5
        assert not m.isdel[2:5].any()
        assert (m.nbr[2:5] == -1).all() and (m.nbr_edge[2:5] == -1).all()
        for t in (2, 3, 4):
            assert orient2d(*(c for v in m.tri[t]
                              for c in (m.px[v], m.py[v]))) > 0

    def test_write_triangle_degenerate_row_writes_nothing(self):
        m = square_two_tris()
        m.add_point(0.5, 0.5)              # on the diagonal 0-2
        m.ensure_tri_capacity(6)
        m.isbad[2:6] = True                # stale flags must survive too
        before = mesh_state(m)
        with pytest.raises(ValueError, match="degenerate"):
            m.write_triangle([2, 3, 4], [0, 0, 0], [1, 4, 3], [2, 2, 2])
        assert_state_unchanged(m, before)

    def test_write_triangle_prices_every_row(self):
        m = square_two_tris()
        m.add_point(0.5, 0.02)             # skinny with 0 and 1
        m.ensure_tri_capacity(4)
        m.isbad[2:4] = [False, True]       # both stale on purpose
        m.write_triangle([2, 3], [0, 0], [1, 1], [4, 2])
        assert m.isbad[2:4].tolist() == [True, False]

    def test_link_rows_write_reverse_only_inside(self):
        m = square_two_tris()
        m.link([0, 1], [0, 2], [-1, 0], [-1, 1])
        assert m.nbr[0, 0] == -1 and m.nbr_edge[0, 0] == -1
        assert m.nbr[1, 2] == 0 and m.nbr_edge[1, 2] == 1
        assert m.nbr[0, 1] == 1 and m.nbr_edge[0, 1] == 2

    def test_boundary_edges_of_square(self):
        m = square_two_tris()
        assert len(m.boundary_edges()) == 4

    def test_copy_independent(self):
        m = square_two_tris()
        c = m.copy()
        c.delete([0])
        assert m.num_triangles == 2
        assert c.num_triangles == 1

    def test_min_angles(self):
        m = square_two_tris()
        assert np.rad2deg(m.min_angles(m.live_slots())).min() == \
            pytest.approx(45)


class TestMortonOrder:
    def test_is_permutation(self, rng):
        x, y = rng.random(100), rng.random(100)
        order = morton_order(x, y)
        assert sorted(order.tolist()) == list(range(100))

    def test_locality(self, rng):
        x, y = rng.random(500), rng.random(500)
        order = morton_order(x, y)
        xs, ys = x[order], y[order]
        jumps = np.hypot(np.diff(xs), np.diff(ys))
        # consecutive points along the Z-curve are much closer than random
        rand_jumps = np.hypot(np.diff(x), np.diff(y))
        assert jumps.mean() < rand_jumps.mean() * 0.5


class TestBuildDelaunay:
    def test_matches_scipy_triangle_count(self):
        rng = np.random.default_rng(5)
        x, y = rng.random(300), rng.random(300)
        mesh = build_delaunay(x, y)
        mesh.validate(check_delaunay=True)
        from scipy.spatial import Delaunay
        pts = np.column_stack([mesh.px[:mesh.n_pts], mesh.py[:mesh.n_pts]])
        assert Delaunay(pts).simplices.shape[0] == mesh.num_triangles

    def test_duplicate_points_inserted_once(self):
        x = np.array([0.5, 0.5, 0.25, 0.75])
        y = np.array([0.5, 0.5, 0.25, 0.75])
        mesh = build_delaunay(x, y)
        assert mesh.num_points == 4 + 3  # corners + unique inputs
        mesh.validate(check_delaunay=True)

    def test_single_point(self):
        mesh = build_delaunay(np.array([0.5]), np.array([0.5]))
        assert mesh.num_triangles == 4
        mesh.validate()

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            build_delaunay(np.array([]), np.array([]))

    @given(st.integers(2, 60), st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_property_valid_delaunay(self, n, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.random(n), rng.random(n)
        mesh = build_delaunay(x, y)
        mesh.validate(check_delaunay=True)
        # Euler: a triangulated convex region with p points and 4 hull
        # corners has 2*(interior points) + 2 triangles
        hull_pts = 4
        interior = mesh.num_points - hull_pts
        assert mesh.num_triangles == 2 * interior + 2


class TestRandomMesh:
    def test_target_size(self):
        mesh = random_mesh(1000, seed=3)
        assert abs(mesh.num_triangles - 1000) < 50

    def test_roughly_half_bad(self):
        mesh = random_mesh(2000, seed=3)
        frac = mesh.bad_slots().size / mesh.num_triangles
        assert 0.3 < frac < 0.7  # the paper's "roughly half" regime

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            random_mesh(1)


class TestCavityOps:
    def test_locate_inside(self, small_mesh, rng):
        m = small_mesh
        # centroid of a live triangle must locate to it (or a duplicate
        # cover at the same point)
        t = int(m.live_slots()[5])
        vs = m.tri[t]
        cx = m.px[vs].mean()
        cy = m.py[vs].mean()
        loc = locate(m, int(m.live_slots()[0]), cx, cy, rng=rng)
        assert loc.kind == "tri"
        assert loc.slot == t

    def test_locate_outside_reports_hull(self, small_mesh, rng):
        m = small_mesh
        loc = locate(m, int(m.live_slots()[0]), 99.0, 99.0, rng=rng)
        assert loc.kind == "hull"
        assert m.nbr[loc.slot, loc.edge] == -1

    def test_cavity_contains_seed(self, small_mesh, rng):
        m = small_mesh
        t = int(m.live_slots()[3])
        vs = m.tri[t]
        cx, cy = m.px[vs].mean(), m.py[vs].mean()
        cav = delaunay_cavity(m, t, cx, cy)
        assert t in cav

    def test_cavity_boundary_closed(self, small_mesh, rng):
        m = small_mesh
        t = int(m.live_slots()[3])
        vs = m.tri[t]
        cx, cy = m.px[vs].mean(), m.py[vs].mean()
        cav = delaunay_cavity(m, t, cx, cy)
        boundary = cavity_boundary(m, cav)
        # boundary edge count = cavity size + 2 for an interior point
        assert len(boundary) == len(cav) + 2

    def test_retriangulate_preserves_validity(self, small_mesh, rng):
        m = small_mesh.copy()
        t = int(m.live_slots()[10])
        vs = m.tri[t]
        cx, cy = float(m.px[vs].mean()), float(m.py[vs].mean())
        cav = delaunay_cavity(m, t, cx, cy)
        n_before = m.num_triangles
        start = m.n_tris
        m.ensure_tri_capacity(start + len(cav) + 4)
        slots = np.arange(start, start + len(cav) + 4)
        m.n_tris = start + len(cav) + 4
        info = retriangulate_one(m, cav, cx, cy, slots)
        m.validate(check_delaunay=True)
        assert m.num_triangles == n_before + 2  # interior insertion
        assert info.new_size == info.old_size + 2

    def test_retriangulate_insufficient_slots_raises(self, small_mesh, rng):
        m = small_mesh.copy()
        t = int(m.live_slots()[0])
        vs = m.tri[t]
        cx, cy = float(m.px[vs].mean()), float(m.py[vs].mean())
        cav = delaunay_cavity(m, t, cx, cy)
        before = mesh_state(m)
        with pytest.raises(CavitySlotsExhausted):
            retriangulate_one(m, cav, cx, cy, np.array([m.n_tris]))
        # All checks run before the point is added or the cavity deleted.
        assert_state_unchanged(m, before)

    def test_retriangulate_not_star_shaped_leaves_mesh_unchanged(
            self, small_mesh):
        m = small_mesh.copy()
        t = int(m.live_slots()[7])
        vs = m.tri[t]
        # Beyond vertex a on the centroid->a ray: both edges at a see the
        # point on their outer side.
        gx, gy = m.px[vs].mean(), m.py[vs].mean()
        ax, ay = m.px[vs[0]], m.py[vs[0]]
        x, y = float(ax + 0.5 * (ax - gx)), float(ay + 0.5 * (ay - gy))
        start = m.n_tris
        m.ensure_tri_capacity(start + 8)
        before = mesh_state(m)
        with pytest.raises(NotStarShaped):
            retriangulate_one(m, [t], x, y, np.arange(start, start + 8))
        assert_state_unchanged(m, before)


class TestBatchRetriangulation:
    """A :func:`retriangulate` batch, taken fan by fan and flushed, leaves
    the mesh byte-identical to one :func:`retriangulate_one` per take in
    the same order: also when cavities overlap or touch (the stale path),
    when a take raises mid-batch, when a cavity is re-planned, and when
    slots of an earlier cavity of the batch are reused."""

    @staticmethod
    def interior_point(m, t, rng):
        w = rng.uniform(0.1, 1.0, 3)
        w /= w.sum()
        vs = m.tri[t]
        return float(w @ m.px[vs]), float(w @ m.py[vs])

    @classmethod
    def plan(cls, m, kind, prev, rng):
        """One cavity on the unmodified mesh: (cavity, x, y, seed)."""
        live = m.live_slots()
        if kind == "near" and prev is not None:
            # A neighbor of the previous seed: the cavities overlap or
            # share boundary triangles.
            nb = [int(u) for u in m.nbr[prev] if u >= 0]
            t = nb[rng.integers(len(nb))]
        else:
            t = int(live[rng.integers(live.size)])
        if kind == "not-star":
            # Beyond vertex a on the centroid->a ray: not star-shaped.
            vs = m.tri[t]
            gx, gy = m.px[vs].mean(), m.py[vs].mean()
            ax, ay = m.px[vs[0]], m.py[vs[0]]
            return [t], float(2 * ax - gx), float(2 * ay - gy), t
        x, y = cls.interior_point(m, t, rng)
        return delaunay_cavity(m, t, x, y), x, y, t

    @given(st.lists(st.sampled_from(("fresh", "near", "not-star", "short",
                                     "replan")), min_size=1, max_size=10),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_one_at_a_time(self, small_mesh, kinds, seed):
        rng = np.random.default_rng(seed)
        plans, prev = [], None
        for kind in kinds:
            cav, x, y, prev = self.plan(small_mesh, kind, prev, rng)
            plans.append((cav, x, y))
        batch_mesh, one_mesh = small_mesh.copy(), small_mesh.copy()
        free = {id(batch_mesh): [], id(one_mesh): []}

        def take_slots(m, need):
            # The multicore drivers' free list: earlier cavities first.
            f = free[id(m)]
            while len(f) < need:
                if m.n_tris >= m.tri.shape[0]:
                    m.ensure_tri_capacity(int(m.tri.shape[0] * 1.5) + 8)
                f.append(m.n_tris)
                m.n_tris += 1
            return np.asarray(f[:need], dtype=np.int64)

        def run(m, take, j, kind):
            cav = plans[j][0]
            slots = take_slots(m, len(cav) + 4)
            if kind == "short":
                slots = slots[:1]
            try:
                info = take(j, slots)
            except (NotStarShaped, CavitySlotsExhausted) as exc:
                return type(exc).__name__
            used = set(info.new_slots)
            free[id(m)] = list(cav) + [s for s in free[id(m)]
                                       if s not in used]
            return info

        with retriangulate(batch_mesh, *zip(*plans)) as fans:
            for j, kind in enumerate(kinds):
                if kind == "replan":
                    fans.flush()
                    t = int(rng.choice(batch_mesh.live_slots()))
                    x, y = self.interior_point(batch_mesh, t, rng)
                    cav = delaunay_cavity(batch_mesh, t, x, y)
                    assert cav == delaunay_cavity(one_mesh, t, x, y)
                    plans[j] = (cav, x, y)
                    fans.replan(j, cav, x, y)
                got = run(batch_mesh, fans.take, j, kind)
                want = run(one_mesh, lambda i, slots: retriangulate_one(
                    one_mesh, *plans[i], slots), j, kind)
                assert got == want
                t = int(rng.integers(one_mesh.n_tris))
                assert fans.still_bad(t) == bool(one_mesh.isbad[t]
                                                 and not one_mesh.isdel[t])
        assert_state_unchanged(batch_mesh, mesh_state(one_mesh))


class TestQualityFlagsNeverStale:
    """Recycled slots must never keep the quality flag of their previous
    triangle: every writer prices what it writes."""

    @given(st.lists(st.sampled_from(("retriangulate", "flip", "insert")),
                    min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_isbad_matches_geometry_after_random_ops(self, small_mesh, ops,
                                                     seed):
        m = small_mesh.copy()
        rng = np.random.default_rng(seed)
        free: list[int] = []      # recycled cavity slots first, then tail
        for op in ops:
            if op == "retriangulate":
                live = m.live_slots()
                t = int(live[rng.integers(live.size)])
                w = rng.uniform(0.1, 1.0, 3)
                w /= w.sum()
                vs = m.tri[t]
                x, y = float(w @ m.px[vs]), float(w @ m.py[vs])
                cav = delaunay_cavity(m, t, x, y)
                need = len(cav) + 4
                while len(free) < need:
                    m.ensure_tri_capacity(m.n_tris + 1)
                    free.append(m.n_tris)
                    m.n_tris += 1
                info = retriangulate_one(m, cav, x, y,
                                         np.asarray(free[:need],
                                                    dtype=np.int64))
                used = set(info.new_slots)
                free = cav + [s for s in free if s not in used]
            elif op == "flip":
                random_legal_flips(m, 3, seed=int(rng.integers(1 << 30)))
                assert_quality_fresh(m)
                legalize_gpu(m, seed=int(rng.integers(1 << 30)))
            else:
                gpu_insert_points(m, rng.uniform(0.3, 0.7, 3),
                                  rng.uniform(0.3, 0.7, 3),
                                  seed=int(rng.integers(1 << 30)))
            assert_quality_fresh(m)


class TestMeshIO:
    def test_roundtrip(self, tmp_path, small_mesh):
        base = tmp_path / "mesh"
        save_mesh(base, small_mesh)
        loaded = load_mesh(base)
        assert loaded.num_triangles == small_mesh.num_triangles
        assert loaded.num_points == small_mesh.num_points
        loaded.validate()
        assert np.allclose(loaded.px[:loaded.n_pts],
                           small_mesh.px[:small_mesh.n_pts])

    def test_comments_ignored(self, tmp_path):
        node = tmp_path / "m.node"
        node.write_text("# hi\n3 2 0 0\n0 0.0 0.0\n1 1.0 0.0\n2 0.0 1.0\n")
        ele = tmp_path / "m.ele"
        ele.write_text("1 3 0\n0 0 1 2  # tri\n")
        m = load_mesh(tmp_path / "m")
        assert m.num_triangles == 1

    def test_one_based_ids(self, tmp_path):
        node = tmp_path / "m.node"
        node.write_text("3 2 0 0\n1 0.0 0.0\n2 1.0 0.0\n3 0.0 1.0\n")
        ele = tmp_path / "m.ele"
        ele.write_text("1 3 0\n1 1 2 3\n")
        m = load_mesh(tmp_path / "m")
        assert m.num_triangles == 1
        m.validate()
