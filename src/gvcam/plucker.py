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

import math

import numpy as np

from .errors import DegenerateInput
from .numeric import (DEFAULT_TOL, is_exact, negligible, norm, row_norms,
                      unitize, unitize_rows, vec)

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


def wedge(x, y):
    """Bilinear wedge x ^ y of two 4-vectors in Pluecker order, with no
    check that the result is nonzero."""
    x, y = vec(x), vec(y)
    return vec([x[i] * y[j] - x[j] * y[i] for i, j in LINE_COORD_PAIRS])


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
    p01, p02, p03, p12, p13, p23 = p
    rows = [
        [0, p23, -p13, p12],
        [-p23, 0, p03, -p02],
        [p13, -p03, 0, p01],
        [-p12, p02, -p01, 0],
    ]
    return np.array(rows, dtype=p.dtype)


def dual_matrix(p):
    """Skew matrix P* with kernel = planes through the line; P* @ u = meet
    point.  Identical to ``primal_matrix(dual_line(p))``."""
    p = vec(p)
    p01, p02, p03, p12, p13, p23 = p
    rows = [
        [0, p01, p02, p03],
        [-p01, 0, p12, p13],
        [-p02, -p12, 0, p23],
        [-p03, -p13, -p23, 0],
    ]
    return np.array(rows, dtype=p.dtype)


def _layout(matrix):
    """Row, column, coordinate index and sign of the twelve nonzero entries
    of ``matrix`` (:func:`primal_matrix` or :func:`dual_matrix`), read off
    the matrix of the line (1, ..., 6)."""
    m = matrix(np.arange(1, 7))
    rows, cols = np.nonzero(m)
    entries = m[rows, cols]
    layout = (rows, cols, np.abs(entries) - 1, np.sign(entries))
    for a in layout:
        a.flags.writeable = False
    return layout


_PRIMAL_LAYOUT, _DUAL_LAYOUT = _layout(primal_matrix), _layout(dual_matrix)


def _stack(L, layout):
    """The matrix with ``layout`` of every row of an (n, 6) stack of floats
    or of Fractions, as (n, 4, 4) with the same entries (multiplying by the
    integer signs +-1 is exact and keeps Fractions)."""
    rows, cols, coords, signs = layout
    M = np.zeros((len(L), 4, 4), dtype=L.dtype)
    M[:, rows, cols] = L[:, coords] * signs
    return M


def _primal_stack(L):
    return _stack(L, _PRIMAL_LAYOUT)


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

def point_line_residual(x, p):
    """Norm of primal_matrix(p) @ x after unitizing both inputs; for an
    (n, 4) float stack of points and an (n, 6) one of lines, the n norms
    row by row (each equal to the call on that row)."""
    x, p = vec(x), vec(p)
    if x.ndim == 2:
        return row_norms(np.matvec(_primal_stack(unitize_rows(p)),
                                   unitize_rows(x)))
    return norm(primal_matrix(unitize(p)) @ unitize(x))


def plane_line_residual(u, p) -> float:
    """Norm of dual_matrix(p) @ u after unitizing both inputs."""
    return norm(dual_matrix(unitize(p)) @ unitize(vec(u)))


def incidence_residual(p, q) -> float:
    return abs(float(np.abs(incidence(unitize(p), unitize(q)))))


def line_residual(p):
    """|quadric| on the unitized vector: distance-like measure from the
    variety of actual lines; for an (n, 6) float stack, the n values row by
    row."""
    p = vec(p)
    if p.ndim == 2:
        return np.abs(plucker_quadric(unitize_rows(p).T))
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
    that plane); any two independent ones span it.  Exact lines take the
    first independent pair.  Float lines take the longest column and the
    one most orthogonal to it (the first on ties), of one line or of each
    row of an (n, 6) stack, which gives (n, 4) stacks of points.
    """
    p = vec(p)
    if is_exact(p):
        dm = dual_matrix(p)
        cols = [vec([dm[r][c] for r in range(4)]) for c in range(4)]

        def _indep(a, b):
            return any(a[i] * b[j] - a[j] * b[i] != 0
                       for i in range(4) for j in range(i + 1, 4))

        cols = [c for c in cols if any(x != 0 for x in c)]
        for k, a in enumerate(cols):
            for b in cols[k + 1:]:
                if _indep(a, b):
                    return a, b
        raise DegenerateInput("vector does not span a line")
    P = np.atleast_2d(p)
    rows = np.arange(len(P))
    cols = np.ascontiguousarray(np.swapaxes(_stack(P, _DUAL_LAYOUT), 1, 2))
    norms = row_norms(cols)
    order = np.argsort(-norms, axis=1)
    a, na = cols[rows, order[:, 0]], norms[rows, order[:, 0]]
    if not np.all(na):
        raise DegenerateInput("vector does not span a line")
    au = a / na[:, None]
    best, best_score = np.zeros_like(a), np.full(len(P), -1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in range(1, 4):
            c, n = cols[rows, order[:, k]], norms[rows, order[:, k]]
            cu = c / n[:, None]
            # the component of cu orthogonal to a; vecdot conjugates its
            # first operand, and conj() undoes that, so this is au @ cu
            score = row_norms(cu - np.vecdot(au.conj(), cu)[:, None] * au)
            better = (n != 0) & (score > best_score)
            best = np.where(better[:, None], c, best)
            best_score = np.where(better, score, best_score)
    if not np.all(best_score >= 1e-12):
        raise DegenerateInput("vector does not span a line")
    return (a, best) if p.ndim == 2 else (a[0], best[0])


def _reject_zero(out, message, *context):
    if negligible(out, math.prod(norm(c) for c in context)):
        raise DegenerateInput(message)
