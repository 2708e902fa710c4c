"""Pluecker coordinates of lines in projective 3-space.

A line through points ``x`` and ``y`` is the 6-vector

    p = (p01, p02, p03, p12, p13, p23),    p_ij = x_i*y_j - x_j*y_i,

always stored in that coordinate order.  Valid lines satisfy the quadric

    p03*p12 - p02*p13 + p01*p23 = 0.

Two skew-symmetric 4x4 matrices carry the line:

* ``primal_matrix(p)``  annihilates exactly the points on the line, and
  ``primal_matrix(p) @ x`` is the plane spanned by the line and ``x``;
* ``dual_matrix(p)``    annihilates exactly the planes through the line,
  and ``dual_matrix(p) @ u`` is the point where the line meets plane ``u``.

Everything here is polynomial in the inputs, so the functions accept both
float arrays and exact rational (Fraction) arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInput
from .numeric import DEFAULT_TOL, is_exact, norm, unitize, vec

__all__ = [
    "wedge", "line_from_points", "line_from_planes", "dual_line",
    "primal_matrix", "dual_matrix", "plucker_quadric", "incidence",
    "join_plane", "meet_point", "point_on_line", "plane_contains_line",
    "line_residual", "point_line_residual", "plane_line_residual",
    "incidence_residual", "points_on_line",
    "LINE_COORD_PAIRS",
]

#: Index pairs (i, j) of the six coordinates, in storage order.
LINE_COORD_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _zero_like(a):
    return 0 if is_exact(a) else 0.0


def wedge(x, y):
    """Bilinear wedge x ^ y of two 4-vectors in Pluecker order, with no
    check that the result is nonzero."""
    x, y = vec(x), vec(y)
    p = np.array(
        [x[i] * y[j] - x[j] * y[i] for i, j in LINE_COORD_PAIRS],
        dtype=object if (is_exact(x) or is_exact(y)) else None,
    )
    return vec(p.tolist())


def line_from_points(x, y):
    """Pluecker vector of the line joining two distinct points."""
    p = wedge(x, y)
    _reject_zero(p, "points are projectively equal", x, y)
    return p


def line_from_planes(a, b):
    """Pluecker vector of the intersection line of two distinct planes.

    The wedge of the two plane covectors produces dual coordinates; the
    star involution converts them to the primal order used everywhere.
    """
    d = line_from_points(a, b)  # same bilinear wedge, in dual coordinates
    return dual_line(d)


def dual_line(p):
    """Star involution (p01,...,p23) -> (p23,-p13,p12,p03,-p02,p01).

    Applying it twice is the identity.  It swaps the primal and dual
    descriptions of the same line, and exchanges the roles of the primal
    and dual matrices."""
    p = vec(p)
    return vec([p[5], -p[4], p[3], p[2], -p[1], p[0]])


def primal_matrix(p):
    """Skew matrix P with kernel = points of the line; P @ x = join plane."""
    p = vec(p)
    z = _zero_like(p)
    p01, p02, p03, p12, p13, p23 = p
    rows = [
        [z, p23, -p13, p12],
        [-p23, z, p03, -p02],
        [p13, -p03, z, p01],
        [-p12, p02, -p01, z],
    ]
    return np.array(rows, dtype=object if is_exact(p) else None)


def dual_matrix(p):
    """Skew matrix P* with kernel = planes through the line; P* @ u = meet
    point.  Identical to ``primal_matrix(dual_line(p))``."""
    p = vec(p)
    z = _zero_like(p)
    p01, p02, p03, p12, p13, p23 = p
    rows = [
        [z, p01, p02, p03],
        [-p01, z, p12, p13],
        [-p02, -p12, z, p23],
        [-p03, -p13, -p23, z],
    ]
    return np.array(rows, dtype=object if is_exact(p) else None)


def plucker_quadric(p):
    """Quadratic form whose vanishing characterizes actual lines."""
    p = vec(p)
    return p[2] * p[3] - p[1] * p[4] + p[0] * p[5]


def incidence(p, q):
    """trace(primal_matrix(p) @ dual_matrix(q)).

    Vanishes exactly when the two lines meet (equivalently are coplanar).
    Equals -2 * (p01*q23 - p02*q13 + p03*q12 + p12*q03 - p13*q02 + p23*q01),
    i.e. -2 * det[x y z w] for spanning points; in particular
    incidence(p, p) = -4 * plucker_quadric(p).
    """
    p, q = vec(p), vec(q)
    return -2 * (p[0] * q[5] - p[1] * q[4] + p[2] * q[3]
                 + p[3] * q[2] - p[4] * q[1] + p[5] * q[0])


def join_plane(p, x):
    """Plane spanned by line ``p`` and a point ``x`` not on it."""
    p, x = vec(p), vec(x)
    u = primal_matrix(p) @ x
    _reject_zero(u, "point lies on the line; join is undefined", p, x)
    return u


def meet_point(p, u):
    """Point where line ``p`` crosses a plane ``u`` not containing it."""
    p, u = vec(p), vec(u)
    x = dual_matrix(p) @ u
    _reject_zero(x, "plane contains the line; meet is undefined", p, u)
    return x


# --- membership residuals ----------------------------------------------------

def point_line_residual(x, p) -> float:
    """Norm of primal_matrix(p) @ x after unitizing both inputs."""
    return norm(primal_matrix(unitize(p)) @ unitize(vec(x)))


def plane_line_residual(u, p) -> float:
    """Norm of dual_matrix(p) @ u after unitizing both inputs."""
    return norm(dual_matrix(unitize(p)) @ unitize(vec(u)))


def incidence_residual(p, q) -> float:
    return abs(float(np.abs(incidence(unitize(p), unitize(q)))))


def line_residual(p) -> float:
    """|quadric| on the unitized vector: distance-like measure from the
    variety of actual lines."""
    return abs(float(np.abs(plucker_quadric(unitize(p)))))


def point_on_line(x, p, tol: float = DEFAULT_TOL) -> bool:
    x, p = vec(x), vec(p)
    if is_exact(x) and is_exact(p):
        return bool(np.all(primal_matrix(p) @ x == 0))
    return point_line_residual(x, p) <= tol


def plane_contains_line(u, p, tol: float = DEFAULT_TOL) -> bool:
    u, p = vec(u), vec(p)
    if is_exact(u) and is_exact(p):
        return bool(np.all(dual_matrix(p) @ u == 0))
    return plane_line_residual(u, p) <= tol


def points_on_line(p):
    """Two independent points spanning the line.

    The columns of the dual matrix are the meets of ``p`` with the four
    coordinate planes, hence points of the line (zero when the line lies in
    that plane); any two independent ones span it.
    """
    p = vec(p)
    dm = dual_matrix(p)
    cols = [vec([dm[r][c] for r in range(4)]) for c in range(4)]

    def _indep(a, b):
        return any(a[i] * b[j] - a[j] * b[i] != 0
                   for i in range(4) for j in range(i + 1, 4))

    if is_exact(p):
        cols = [c for c in cols if any(x != 0 for x in c)]
        for k, a in enumerate(cols):
            for b in cols[k + 1:]:
                if _indep(a, b):
                    return a, b
        raise DegenerateInput("vector does not span a line")
    order = np.argsort([-norm(c) for c in cols])
    a = cols[order[0]]
    if norm(a) == 0.0:
        raise DegenerateInput("vector does not span a line")
    au = a / norm(a)
    best, best_score = None, -1.0
    for idx in order[1:]:
        c = cols[idx]
        n = norm(c)
        if n == 0.0:
            continue
        cu = c / n
        score = norm(cu - (au @ cu) * au)  # component orthogonal to a
        if score > best_score:
            best, best_score = c, score
    if best is None or best_score < 1e-12:
        raise DegenerateInput("vector does not span a line")
    return a, best


def _reject_zero(out, message, *context):
    if is_exact(out):
        if all(x == 0 for x in out):
            raise DegenerateInput(message)
        return
    scale = 1.0
    for c in context:
        scale *= norm(c)
    if norm(out) <= 1e-12 * scale:
        raise DegenerateInput(message)
