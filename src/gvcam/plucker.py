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
from .numeric import (LINE_COORD_PAIRS, ZERO_EPS, _scaled_rows, as_float,
                      common_type, is_exact, multiply, negligible, norm,
                      row_norms, unitize, vec)

__all__ = [
    "wedge", "line_from_points", "line_from_planes", "dual_line",
    "primal_matrix", "dual_matrix", "plucker_quadric", "incidence",
    "join_plane", "meet_point", "line_residual", "point_line_residual", "plane_line_residual",
    "incidence_residual", "points_on_line",
    "LINE_COORD_PAIRS",
]

_WEDGE_I, _WEDGE_J = (np.array(v) for v in zip(*LINE_COORD_PAIRS))


def wedge(x, y):
    """Bilinear wedge x ^ y of two 4-vectors in Pluecker order, with no
    check that the result is nonzero; of each row when either is a stack
    (the other broadcast against it).  Both are first put in one number
    type (:func:`numeric.common_type`); complex products round as the
    scalar ones do (:func:`numeric.multiply`)."""
    x, y = common_type(vec(x), vec(y))
    i, j = _WEDGE_I, _WEDGE_J
    return multiply(x[..., i], y[..., j]) - multiply(x[..., j], y[..., i])


def line_from_points(x, y):
    """Pluecker vector of the line joining two distinct points."""
    p = wedge(x, y)
    if negligible(p, lambda: norm(x) * norm(y)):
        raise DegenerateInput("points are projectively equal")
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
    and dual matrices.  Of each row of a stack."""
    return _signed(p, _STAR)


def _signed_table(entries):
    """Indices into ``(p, -p, 0)`` (13 values) of an array whose entries
    are given as signed coordinate numbers: +k is p[k - 1], -k is
    -p[k - 1], and 0 is zero."""
    t = np.array(entries)
    table = np.where(t > 0, t - 1, np.where(t < 0, 5 - t, 12))
    table.flags.writeable = False
    return table


# coordinate k is p[k - 1] of (p01, p02, p03, p12, p13, p23)
_STAR = _signed_table((6, -5, 4, 3, -2, 1))
_PRIMAL = _signed_table(((0, 6, -5, 4),
                         (-6, 0, 3, -2),
                         (5, -3, 0, 1),
                         (-4, 2, -1, 0)))
_DUAL = _signed_table(((0, 1, 2, 3),
                       (-1, 0, 4, 5),
                       (-2, -4, 0, 6),
                       (-3, -5, -6, 0)))


def _signed(p, table):
    """The array of ``table`` of a line, or of each row of a stack, in the
    line's number type (negation is exact)."""
    p = vec(p)
    return np.concatenate([p, -p, np.zeros_like(p[..., :1])],
                          axis=-1)[..., table]


def primal_matrix(p):
    """Skew matrix P with kernel = points of the line; P @ x = join plane.
    Of each row of a stack of lines, as (..., 4, 4)."""
    return _signed(p, _PRIMAL)


def dual_matrix(p):
    """Skew matrix P* with kernel = planes through the line; P* @ u = meet
    point.  Identical to ``primal_matrix(dual_line(p))``; of each row of a
    stack of lines, as (..., 4, 4)."""
    return _signed(p, _DUAL)


def plucker_quadric(p):
    """Quadratic form whose vanishing characterizes actual lines (of each
    row of a stack)."""
    p = vec(p)
    return (p[..., 2] * p[..., 3] - p[..., 1] * p[..., 4]
            + p[..., 0] * p[..., 5])


def incidence(p, q):
    """trace(primal_matrix(p) @ dual_matrix(q)), row by row for stacks.

    Vanishes exactly when the two lines meet (equivalently are coplanar).
    Equals -2 * (p01*q23 - p02*q13 + p03*q12 + p12*q03 - p13*q02 + p23*q01),
    i.e. -2 * det[x y z w] for spanning points; in particular
    incidence(p, p) = -4 * plucker_quadric(p).
    """
    p, q = vec(p), vec(q)
    return -2 * (p[..., 0] * q[..., 5] - p[..., 1] * q[..., 4]
                 + p[..., 2] * q[..., 3] + p[..., 3] * q[..., 2]
                 - p[..., 4] * q[..., 1] + p[..., 5] * q[..., 0])


def join_plane(p, x):
    """Plane spanned by line ``p`` and a point ``x`` not on it."""
    p, x = vec(p), vec(x)
    u = primal_matrix(p) @ x
    if negligible(u, lambda: norm(p) * norm(x)):
        raise DegenerateInput("point lies on the line; join is undefined")
    return u


def meet_point(p, u):
    """Point where line ``p`` crosses a plane ``u`` not containing it."""
    p, u = vec(p), vec(u)
    x = dual_matrix(p) @ u
    if negligible(x, lambda: norm(p) * norm(u)):
        raise DegenerateInput("plane contains the line; meet is undefined")
    return x


# --- membership residuals ----------------------------------------------------
#
# Each residual is its relation evaluated on the inputs at unit norm, so it
# does not depend on their projective scale (exact rows give 0.0 exactly
# where it vanishes): a kernel on the pairs of _unit, which a caller that
# keeps its data's pairs calls directly.  A vector gives one value, stacks
# (broadcast against each other) one value per row.

def _unit(*arrays):
    """``(u, n)`` of each array in one type (:func:`numeric.common_type`),
    with ``u / n`` its rows at unit norm: unitized floats and n = 1.0
    (dividing by it changes no bit), or the exact rows and their float
    norms.  Each exact row is first divided exactly by its largest
    coordinate (:func:`numeric._scaled_rows`), so that it rounds to floats
    neither overflowing nor depending on its scale."""
    return [(a, row_norms(as_float(a))) if is_exact(a) else (unitize(a), 1.0)
            for a in common_type(*(_scaled_rows(vec(a)) for a in arrays))]


def point_line_residual(x, p):
    """|primal_matrix(p) @ x| at unit norm."""
    return _point_line(*_unit(x, p))


def _point_line(x, p):
    (X, nx), (U, n) = x, p
    return row_norms(as_float(np.matvec(primal_matrix(U), X))) / (n * nx)


def plane_line_residual(u, p):
    """|dual_matrix(p) @ u| at unit norm."""
    (V, nu), (U, n) = _unit(u, p)
    return row_norms(as_float(np.matvec(dual_matrix(U), V))) / (n * nu)


def incidence_residual(p, q):
    """|incidence(p, q)| at unit norm."""
    return _incidence(*_unit(p, q))


def _incidence(p, q):
    (U, n), (V, nq) = p, q
    return np.abs(as_float(incidence(U, V))) / (n * nq)


def line_residual(p):
    """|plucker_quadric(p)| at unit norm: distance-like measure from the
    variety of actual lines."""
    ((U, n),) = _unit(p)
    return np.abs(as_float(plucker_quadric(U))) / (n * n)


def points_on_line(p):
    """Two independent points spanning the line, or (..., 4) stacks of
    them for a stack of lines, in the line's number type.

    The columns of the dual matrix are the meets of ``p`` with the four
    coordinate planes, hence points of the line (zero when the line lies in
    that plane); any two independent ones span it.  The longest column is
    taken, with the one most orthogonal to it (the first on ties), both
    chosen on floats (exact lines are first scaled by their largest
    coordinate, then rounded).
    """
    cols = np.swapaxes(dual_matrix(_scaled_rows(vec(p))), -1, -2)
    shape = cols.shape[:-1]             # of the points
    cols = cols.reshape(-1, 4, 4)
    F = np.ascontiguousarray(as_float(cols))
    rows = np.arange(len(F))
    norms = row_norms(F)
    order = np.argsort(-norms, axis=1)
    first = order[:, 0]
    na = norms[rows, first]
    if not na.all():
        raise DegenerateInput("vector does not span a line")
    au = F[rows, first] / na[:, None]
    second, best_score = first, np.full(len(F), -1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in range(1, 4):
            j = order[:, k]
            n = norms[rows, j]
            cu = F[rows, j] / n[:, None]
            # the component of cu orthogonal to a; vecdot conjugates its
            # first operand, and conj() undoes that, so this is au @ cu
            score = row_norms(cu - np.vecdot(au.conj(), cu)[:, None] * au)
            better = (n != 0) & (score > best_score)
            second = np.where(better, j, second)
            best_score = np.where(better, score, best_score)
    if not (best_score >= ZERO_EPS).all():
        raise DegenerateInput("vector does not span a line")
    return (cols[rows, first].reshape(shape),
            cols[rows, second].reshape(shape))
