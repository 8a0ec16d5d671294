"""Planar geometric predicates and triangle quality measures.

Scalar predicates (:func:`orient2d`, :func:`incircle`) evaluate a
floating-point determinant and fall back to *exact rational arithmetic*
(``fractions.Fraction`` — Python floats are exact binary rationals) when
the result's magnitude is below a conservative forward error bound.
This is a simplified form of Shewchuk's adaptive predicates: slower on
the rare near-degenerate case, exact in sign everywhere, fast in bulk.

Vectorized variants (``*_many``) evaluate whole arrays in float64 for
mesh-wide passes where an occasional borderline misclassification is
tolerable (quality flags, statistics).  Structural decisions in the
triangulator always use exact signs: the scalar forms, or
:func:`orient2d_exact_many`, which applies :func:`orient2d`'s float
filter to a whole array and sends only the rows under the error bound
down the scalar exact path.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = [
    "orient2d", "incircle", "orient2d_many", "orient2d_exact_many",
    "incircle_many", "circumcenter", "circumcenter_many",
    "circumradius_many", "min_angle_many", "corner_angles",
    "triangle_angles", "is_bad_many", "segment_midpoint",
    "point_in_triangle",
]

# Machine epsilon based error-bound coefficients (cf. Shewchuk 1997).
_EPS = np.finfo(np.float64).eps
_O2D_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_ICC_BOUND = (10.0 + 96.0 * _EPS) * _EPS
#: below this magnitude, intermediate products may have underflowed and
#: the float error bound is meaningless -> always take the exact path
_UNDERFLOW = 1e-280


def orient2d(ax: float, ay: float, bx: float, by: float,
             cx: float, cy: float) -> float:
    """Sign of twice the signed area of triangle (a, b, c).

    > 0 if counter-clockwise, < 0 if clockwise, 0 if collinear.  Exact
    sign (via rational fallback); the magnitude is the float estimate.
    """
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if detsum >= _UNDERFLOW and abs(det) >= _O2D_BOUND * detsum:
        return det
    if detsum == 0.0 and ax == bx == cx and ay == by == cy:
        return 0.0
    # Exact fallback.
    fa = (Fraction(ax) - Fraction(cx)) * (Fraction(by) - Fraction(cy))
    fb = (Fraction(ay) - Fraction(cy)) * (Fraction(bx) - Fraction(cx))
    d = fa - fb
    return float(np.sign(d)) if d else 0.0


def incircle(ax, ay, bx, by, cx, cy, px, py) -> float:
    """> 0 iff p lies strictly inside the circumcircle of CCW (a, b, c).

    Exact sign; assumes (a, b, c) is counter-clockwise (negate for CW).
    """
    adx, ady = ax - px, ay - py
    bdx, bdy = bx - px, by - py
    cdx, cdy = cx - px, cy - py
    ad = adx * adx + ady * ady
    bd = bdx * bdx + bdy * bdy
    cd = cdx * cdx + cdy * cdy
    det = (adx * (bdy * cd - bd * cdy)
           - ady * (bdx * cd - bd * cdx)
           + ad * (bdx * cdy - bdy * cdx))
    permanent = ((abs(bdx * cd) + abs(bd * cdx)) * abs(ady)
                 + (abs(bdy * cd) + abs(bd * cdy)) * abs(adx)
                 + (abs(bdx * cdy) + abs(bdy * cdx)) * ad)
    if permanent >= _UNDERFLOW and abs(det) >= _ICC_BOUND * permanent:
        return det
    # Exact fallback.
    fadx, fady = Fraction(ax) - Fraction(px), Fraction(ay) - Fraction(py)
    fbdx, fbdy = Fraction(bx) - Fraction(px), Fraction(by) - Fraction(py)
    fcdx, fcdy = Fraction(cx) - Fraction(px), Fraction(cy) - Fraction(py)
    fad = fadx * fadx + fady * fady
    fbd = fbdx * fbdx + fbdy * fbdy
    fcd = fcdx * fcdx + fcdy * fcdy
    d = (fadx * (fbdy * fcd - fbd * fcdy)
         - fady * (fbdx * fcd - fbd * fcdx)
         + fad * (fbdx * fcdy - fbdy * fcdx))
    return float(np.sign(d)) if d else 0.0


# --------------------------------------------------------------------- #
# Vectorized (approximate) forms                                        #
# --------------------------------------------------------------------- #

def orient2d_many(ax, ay, bx, by, cx, cy) -> np.ndarray:
    return (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)


def orient2d_exact_many(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """Row-wise :func:`orient2d`: at least one argument is a 1-d array,
    the others broadcast against it.

    The same float filter gives the same signs: rows whose determinant
    clears the error bound keep the float value (computed with the
    scalar form's IEEE operations), and only the rows under the bound
    go through the scalar exact fallback.
    """
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    detsum = np.abs(detleft) + np.abs(detright)
    sure = (detsum >= _UNDERFLOW) & (np.abs(det) >= _O2D_BOUND * detsum)
    if not sure.all():
        rows = np.broadcast_arrays(ax, ay, bx, by, cx, cy)
        for i in np.flatnonzero(~sure).tolist():
            det[i] = orient2d(*(float(v[i]) for v in rows))
    return det


def incircle_many(ax, ay, bx, by, cx, cy, px, py) -> np.ndarray:
    adx, ady = ax - px, ay - py
    bdx, bdy = bx - px, by - py
    cdx, cdy = cx - px, cy - py
    ad = adx * adx + ady * ady
    bd = bdx * bdx + bdy * bdy
    cd = cdx * cdx + cdy * cdy
    return (adx * (bdy * cd - bd * cdy)
            - ady * (bdx * cd - bd * cdx)
            + ad * (bdx * cdy - bdy * cdx))


def circumcenter(ax, ay, bx, by, cx, cy) -> tuple[float, float]:
    """Circumcenter of one triangle (raises on degenerate input)."""
    d = 2.0 * ((ax - cx) * (by - cy) - (ay - cy) * (bx - cx))
    if d == 0.0:
        raise ZeroDivisionError("degenerate triangle has no circumcenter")
    asq = (ax - cx) ** 2 + (ay - cy) ** 2
    bsq = (bx - cx) ** 2 + (by - cy) ** 2
    ux = cx + ((by - cy) * asq - (ay - cy) * bsq) / d
    uy = cy + ((ax - cx) * bsq - (bx - cx) * asq) / d
    return ux, uy


def circumcenter_many(ax, ay, bx, by, cx, cy) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized circumcenters; degenerate rows yield inf (no exception)."""
    d = 2.0 * ((ax - cx) * (by - cy) - (ay - cy) * (bx - cx))
    asq = (ax - cx) ** 2 + (ay - cy) ** 2
    bsq = (bx - cx) ** 2 + (by - cy) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = cx + ((by - cy) * asq - (ay - cy) * bsq) / d
        uy = cy + ((ax - cx) * bsq - (bx - cx) * asq) / d
    return ux, uy


def circumradius_many(ax, ay, bx, by, cx, cy) -> np.ndarray:
    ux, uy = circumcenter_many(ax, ay, bx, by, cx, cy)
    return np.hypot(ux - ax, uy - ay)


#: Corner indices (a, b, c, a, b): slices ``[1:4]`` and ``[2:5]`` give the
#: next and the previous corner of each corner.
_ROLL = np.array([0, 1, 2, 0, 1])


def corner_angles(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Interior angles (radians) of triangles given by corner arrays.

    ``x``/``y`` have shape ``(..., 3)``, corners ``(a, b, c)`` in the
    last axis; the result has the same shape, angle ``i`` at corner
    ``i``.  All three corners go through each operation at once; the
    values are those of the textbook per-angle law of cosines.
    """
    x5, y5 = x[..., _ROLL], y[..., _ROLL]
    # Squared length of the side opposite each corner, in _ROLL order.
    s2 = ((x5[..., 1:4] - x5[..., 2:5]) ** 2
          + (y5[..., 1:4] - y5[..., 2:5]) ** 2)[..., _ROLL]
    s = np.sqrt(s2)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = ((s2[..., 1:4] + s2[..., 2:5] - s2[..., :3])
               / (2 * s[..., 1:4] * s[..., 2:5]))
    np.maximum(cos, -1.0, out=cos)
    np.minimum(cos, 1.0, out=cos)
    return np.arccos(cos, out=cos)


def triangle_angles(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """All three interior angles (radians); shape ``(..., 3)``."""
    return corner_angles(np.stack(np.broadcast_arrays(ax, bx, cx), axis=-1),
                         np.stack(np.broadcast_arrays(ay, by, cy), axis=-1))


def min_angle_many(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """Smallest interior angle per triangle (radians)."""
    return triangle_angles(ax, ay, bx, by, cx, cy).min(axis=-1)


def is_bad_many(ax, ay, bx, by, cx, cy, min_angle_deg: float = 30.0) -> np.ndarray:
    """Quality flag: True where the smallest angle is below the bound."""
    return min_angle_many(ax, ay, bx, by, cx, cy) < np.deg2rad(min_angle_deg)


def segment_midpoint(ax, ay, bx, by) -> tuple[float, float]:
    return (ax + bx) / 2.0, (ay + by) / 2.0


def diametral_contains(ax, ay, bx, by, px, py):
    """True iff p lies strictly inside the diametral circle of segment ab.

    Equivalent to the angle apb being obtuse; works element-wise on
    arrays.  This is Ruppert's segment-encroachment test.
    """
    return (px - ax) * (px - bx) + (py - ay) * (py - by) < 0


def point_in_triangle(ax, ay, bx, by, cx, cy, px, py) -> bool:
    """True iff p is inside or on the boundary of CCW triangle (a, b, c)."""
    return (orient2d(ax, ay, bx, by, px, py) >= 0
            and orient2d(bx, by, cx, cy, px, py) >= 0
            and orient2d(cx, cy, ax, ay, px, py) >= 0)
