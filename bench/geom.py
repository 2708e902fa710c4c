"""Plücker-line geometry written for the benchmark alone.

The scene generator and the output oracle use these helpers, never the
gvcam functions under test, so a bug in gvcam cannot hide itself by
agreeing with its own checks.  Conventions follow gvcam's documented
ones: points are (x0 : x1 : x2 : x3) with x0 the affine weight, and a
line through points a, b has coordinates p_ij = a_i b_j - a_j b_i in the
order (p01, p02, p03, p12, p13, p23).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_INDEX = {pair: k for k, pair in enumerate(PAIRS)}


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def join(a, b):
    """Line through two points."""
    return np.array([a[i] * b[j] - a[j] * b[i] for i, j in PAIRS])


def null_vector(rows):
    """Unit vector orthogonal to the given rows (rank one less than 4)."""
    return np.linalg.svd(np.asarray(rows, dtype=float))[2][-1]


def meet(u, v):
    """Line in which two planes meet: the join of two points of both."""
    _, _, vt = np.linalg.svd(np.array([u, v], dtype=float))
    return join(vt[2], vt[3])


def point_line_residual(x, p):
    """Largest Grassmann-Plücker relation of a unit point and unit line;
    zero exactly when the point lies on the line."""
    x, p = unit(x), unit(p)
    out = 0.0
    for i, j, k in combinations(range(4), 3):
        r = (x[i] * p[_INDEX[(j, k)]] - x[j] * p[_INDEX[(i, k)]]
             + x[k] * p[_INDEX[(i, j)]])
        out = max(out, abs(r))
    return out


def proj_distance(u, v):
    """Distance between two real projective points as unit vectors, up to
    sign."""
    u, v = unit(u), unit(v)
    return float(min(np.linalg.norm(u - v), np.linalg.norm(u + v)))


# --- camera images ---------------------------------------------------------
#
# Each camera is described by the points that span its focal locus; its
# image of a world point x is the unique line of its congruence through x.

def two_slit_image(slits, x):
    """slits: two pairs of points; the transversal through x is the meet of
    the planes spanned by x and each slit."""
    (a1, b1), (a2, b2) = slits
    return meet(null_vector([x, a1, b1]), null_vector([x, a2, b2]))


def pushbroom_slits(a, b):
    """Slits of a pushbroom camera with finite slit ab: the second slit is
    the line at infinity of the planes orthogonal to its direction."""
    d = unit(np.asarray(b[1:]) / b[0] - np.asarray(a[1:]) / a[0])
    _, _, vt = np.linalg.svd(d[None, :])
    return (a, b), (np.r_[0.0, vt[1]], np.r_[0.0, vt[2]])


def cubic_point(H, s, t=1.0):
    """Point H (s^3, s^2 t, s t^2, t^3) of a twisted cubic."""
    return H @ np.array([s ** 3, s ** 2 * t, s * t ** 2, t ** 3])


def cubic_image(H, x):
    """Secant of the twisted cubic H(s^3 : s^2 t : s t^2 : t^3) through x.

    For x' = H^-1 x, the quadric (q0, q1, q2) in the kernel of the Hankel
    rows (x'0 x'1 x'2), (x'1 x'2 x'3) vanishes at the two parameters of
    the secant; the real part of either curve point is a second real point
    of the line.
    """
    xn = np.linalg.solve(H, x)
    q = null_vector([xn[:3], xn[1:]])
    root = np.roots(q)[0]
    y = np.real(np.array([root ** 3, root ** 2, root, 1.0]))
    return join(x, H @ y)


def image(cam, x):
    kind = cam["type"]
    if kind == "pinhole":
        return join(cam["center"], x)
    if kind in ("two_slit", "pushbroom"):
        return two_slit_image(cam["slit_points"], x)
    if kind == "twisted_cubic":
        return cubic_image(cam["H"], x)
    raise ValueError("unknown camera kind %r" % kind)


# --- quadric mirrors -------------------------------------------------------

def quadric_matrix(coeffs):
    """Symmetric matrix Q of a diagonal quadric given as {exponent key:
    value}, with x^T Q x the surface polynomial."""
    Q = np.zeros((4, 4))
    for key, value in coeffs.items():
        i = key.index("2")
        Q[i, i] = float(Fraction(value))
    return Q


def line_quadric_points(Q, a, b):
    """Real points of the line ab on x^T Q x = 0, as (points, discriminant
    relative to the coefficient size)."""
    qa, qab, qb = a @ Q @ a, a @ Q @ b, b @ Q @ b
    disc = qab * qab - qa * qb
    scale = max(abs(qa), abs(qab), abs(qb)) ** 2
    if disc < 0:
        return [], disc / scale
    r = np.sqrt(disc)
    # roots of qb t^2 + 2 qab t + qa in the pencil a + t b, written
    # homogeneously so neither root is lost at t = infinity
    pts = [(-qab + r) * a + qa * b, (-qab - r) * a + qa * b] if abs(qb) < abs(
        qa) else [qb * a + (-qab + r) * b, qb * a + (-qab - r) * b]
    return pts, disc / scale


def reflect_across(plane, y):
    """Euclidean mirror image of the affine point y across a plane."""
    n = plane[1:]
    y = y / y[0]
    return np.r_[1.0, y[1:] - 2 * (plane @ y) / (n @ n) * n]
