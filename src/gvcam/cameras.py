"""Catalog of order-one line-congruence cameras.

A congruence of bidegree (1, beta) assigns to a generic world point the
unique line of the family through it; this is the geometric camera.  The
catalog (after projective normalization):

* :class:`Pinhole` — lines through a point; beta = 0.
* :class:`TwoSlit` / :class:`Pushbroom` — transversals of two skew lines;
  beta = 1.
* :class:`TwistedCubic` — secants of a twisted cubic; beta = 3.
* :class:`Type3` — lines meeting a fixed line L and a rational curve X of
  degree beta that meets L in beta-1 points.
* :class:`Type4` — limit of Type3 where the curve collapses into L.
* :class:`PanoramicNC` / :class:`PanoramicStereo` — the two order-two
  circular congruences; their ``project`` raises UnsupportedOrder (no
  unique line) but their membership ideals, bidegrees and focal surfaces
  live here.

``project`` takes one point or an (N, 4) stack of points.  One point
returns its line or raises FocalPoint; a stack returns the (N, 6) lines
(zero in the rows of focal points) and a dict from each focal row to its
FocalPoint message.  ``congruence_residual`` takes one line or an (N, 6)
stack of lines and returns one residual per line, which does not depend
on the projective scale of the line or of the camera's data.

Each kind implements both as one array expression on a stack (one point
or line is a stack of one), in the number type that
:func:`numeric.common_type` picks.  The expressions are the scalar ones
applied to the stack's columns, so every float value is the scalar one
bit for bit (powers go through :func:`numeric.power`).  Fraction stacks
project exactly and their focal tests compare with zero exactly; their
residuals are floats, with an exact numerator for the pinhole and
two-slit kinds (so that exact members give 0.0), computed from the
rounded lines for the others.

Every kind is a :class:`_Camera`: it declares ``kind``, ``bidegree`` and
``fields`` (its descriptor's keys besides ``"type"``, attributes left out
of ``payload()`` when None), and sets ``_data``, the arrays (or None) that
``project`` passes on to its ``_project`` after the stack (C-contiguous,
2-d), all in one number type; ``_residuals`` takes the stack of lines
(exact rows scaled by their largest coordinate), and the pinhole and
two-slit kinds unitize their data once, in ``_kept``, which ``_units``
reads.  Its focal locus, where the zero tests of ``_project`` hold, is
stated once, as ``focal_points``, ``focal_lines`` (tuples) and
``focal_curve`` (a :class:`RationalCurve`, or None), and ``focal_parts``,
``line_parts`` and ``focal_residual`` derive from it; the panoramic
kinds, which state none, give their focal quartic.  Type3 and Type4 share
``_Pencil``.
"""

from __future__ import annotations

import numpy as np

from .errors import (DegenerateInput, FocalPoint, InvalidSlit,
                     DegenerateCubic, UnsupportedOrder)
from .numeric import (DEFAULT_TOL, FOCAL_EPS, ZERO_EPS, _binade,
                      _scaled_rows, _squarable, as_float, binary_eval,
                      binary_roots, common_type, compound2,
                      exact_nullspace, is_exact, negligible, norm,
                      parse_vector, power, projective_distance, row_norms,
                      unitize, vec, vector_payload)
from .plucker import (_incidence, _point_line, _unit, dual_line, incidence,
                      incidence_residual, line_residual, plucker_quadric,
                      point_line_residual, primal_matrix, wedge)

__all__ = [
    "Pinhole", "TwoSlit", "Pushbroom", "TwistedCubic", "Type3", "Type4",
    "PanoramicNC", "PanoramicStereo", "RationalCurve", "project",
    "congruence_residual", "line_curve_residual", "point_curve_residual",
    "sum_of_two_cubes", "secant_quadrics", "secant_system",
    "pushbroom_infinity_slit", "camera_from_payload", "reference_type3",
    "reference_type4",
]

# --------------------------------------------------------------------------
# rational curves in P^3 (rows = binary forms for the four coordinates)

class RationalCurve:
    """Parameterized rational curve (s:t) -> P^3, one binary-form
    coefficient vector per coordinate, all of the same degree."""

    def __init__(self, coords):
        degs = {len(c) for c in coords}
        if len(coords) != 4 or len(degs) != 1:
            raise DegenerateInput("curve needs four forms of equal degree")
        self.coords = coords

    @property
    def degree(self) -> int:
        return len(self.coords[0]) - 1

    def point(self, s, t):
        return vec([binary_eval(c, s, t) for c in self.coords])

    def scale(self) -> float:
        return max(norm(c) for c in self.coords)


TWISTED_CUBIC_CURVE = RationalCurve((
    (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)))


#: Size, relative to the curve, below which all forms vanish: x is on it.
VANISHING_EPS = 1e-14


def _forms_residual(forms, curve: RationalCurve) -> float:
    """Smallest joint residual of the binary forms (rows) at the roots of
    two fixed generic combinations of them; 0.0 when every form vanishes
    (next to the curve's scale) or no candidate is left."""
    scale = float(np.max(row_norms(forms)))
    if scale <= VANISHING_EPS * curve.scale():
        return 0.0
    g = np.random.default_rng(20240817).standard_normal((2, 2, len(forms)))
    combos = (g[:, 0] + 1j * g[:, 1]) @ forms
    combos[row_norms(combos) <= ZERO_EPS * scale] = 0
    s, t, found = binary_roots(combos)
    if not found.any():
        return 0.0
    m = np.sqrt(np.abs(s[found]) ** 2 + np.abs(t[found]) ** 2)
    values = binary_eval(forms.T[..., None], s[found] / m, t[found] / m)
    return float(np.min(np.max(np.abs(values), axis=0))) / scale


def line_curve_residual(p, curve: RationalCurve) -> float:
    """How far the line is from meeting the curve: minimal joint residual
    of the four incidence forms (P * X(s,t)) over candidate parameters."""
    p = unitize(as_float(vec(p)))
    return _forms_residual(primal_matrix(p) @ as_float(vec(curve.coords)),
                           curve)


def point_curve_residual(x, curve: RationalCurve) -> float:
    """Distance-like residual of a point from the curve: the six wedge
    forms x_i X_j(s,t) - x_j X_i(s,t) share a root iff x is on it."""
    x = unitize(as_float(vec(x)))
    X = as_float(vec(curve.coords))
    return _forms_residual(wedge(x, X.T).T, curve)


# --------------------------------------------------------------------------
# cameras

#: |Binary exponent| of a float H's largest entry beyond which H projects
#: at its power-of-two scale Hs: secants, ~|H|^-4, stay squarable.
HOMOGRAPHY_EXPONENT = 32
#: Line-quadric value of a unitized slit, and incidence of two, that
#: counts as zero; relative, since unitized slits have norm 1.
SLIT_EPS = 1e-9
#: Largest two-cube reconstruction residual; relative, as the cubic is
#: unitized.
TWO_CUBES_EPS = 1e-9
#: Imaginary part of two-cube parameters and weights dropped as rounding;
#: absolute, in binary_roots' scaling and in the caller's scaling of x.
IMAGINARY_EPS = 1e-9
#: Floor of the scale, norm(g) * norm(h), of Type4's minors of (g, h), so
#: that a zero g or h counts as proportional.
PROPORTIONAL_FLOOR = 1e-300
#: Zero of a unitized line's meets with x2 = 0 and x3 = 0 (relative) and
#: of its Type3/Type4 curve point (absolute, in the scale of f, g and h).
PENCIL_EPS = 1e-14


def _in_float_range(scale, lines):
    """``scale`` (one per row), once it and the norm of every row of
    ``lines`` are finite; else DegenerateInput naming the first point
    whose projection overflows the float range."""
    ok = np.isfinite(scale) & np.isfinite(norm(lines, -1))
    if not ok.all():
        raise DegenerateInput(
            "points[%d] is too large: its projection overflows the float "
            "range" % np.argmin(ok))
    return scale


class _Camera:
    """The protocol every camera kind shares (see the module docstring)."""

    fields = ()
    focal_points = focal_lines = ()
    focal_curve = None
    _data = ()

    def project(self, x):
        """The line of one point, or ``(lines, focal)`` for an (N, 4) stack.

        ``_project`` returns the lines and its focal tests, in order of
        priority: (message, v, eps, scale) for the rows where the stack
        ``v`` is zero (:func:`numeric.negligible` of each row, which calls
        ``scale`` only for floats).  A float point whose line has no finite
        norm, or whose scale in a test is not finite, is too large for the
        float range: DegenerateInput names it, and it is not a focal point.
        """
        X = vec(x)
        args = common_type(np.ascontiguousarray(np.atleast_2d(X)),
                           *self._data)
        with np.errstate(over="ignore", invalid="ignore"):
            lines, tests = self._project(*args)
            hits = [(message, negligible(
                        v, lambda: _in_float_range(scale(), lines), eps,
                        axis=-1))
                    for message, v, eps, scale in tests]
        focal = {}
        for message, hit in reversed(hits):
            focal.update(dict.fromkeys(np.flatnonzero(hit).tolist(), message))
            lines[hit] = 0
        focal = dict(sorted(focal.items()))
        if X.ndim == 2:
            return lines, focal
        if focal:
            raise FocalPoint(focal[0])
        return lines[0]

    def congruence_residual(self, p):
        """The residual of one line, or of each row of an (N, 6) stack, whose
        exact rows are first divided exactly by their largest coordinate."""
        P = _scaled_rows(vec(p))
        r = self._residuals(np.ascontiguousarray(np.atleast_2d(P)))
        return r if P.ndim == 2 else float(r[0])

    def _units(self, P):
        """``plucker._unit(P, *data)`` of a scaled stack of lines, from the
        unit pairs ``_kept`` of the camera's data."""
        if is_exact(P) and is_exact(self._kept[0][0]):
            return [(P, row_norms(as_float(P))), *self._kept]
        return [(unitize(as_float(P)), 1.0)] + [
            (unitize(as_float(u)), 1.0) if is_exact(u) else (u, n)
            for u, n in self._kept]

    def focal_parts(self, x):
        """x's residuals to the parts of the focal locus, as three lists: its
        projective distances to ``focal_points``, point-line residuals to
        ``focal_lines`` and point-curve residual to ``focal_curve``, if any."""
        curves = () if self.focal_curve is None else (self.focal_curve,)
        return ([projective_distance(x, y) for y in self.focal_points],
                [point_line_residual(x, ln) for ln in self.focal_lines],
                [point_curve_residual(x, c) for c in curves])

    def line_parts(self, ln):
        """A line's residuals to the parts of the focal locus, as two lists:
        its incidence residuals to ``focal_lines`` and line-curve residual
        to ``focal_curve``, if any."""
        curves = () if self.focal_curve is None else (self.focal_curve,)
        return ([incidence_residual(ln, ln2) for ln2 in self.focal_lines],
                [line_curve_residual(ln, c) for c in curves])

    def focal_residual(self, x) -> float:
        """The smallest of :meth:`focal_parts`: 0 on the focal locus, where
        ``project`` raises FocalPoint."""
        points, lines, curves = self.focal_parts(x)
        return float(min(points + lines + curves))

    def payload(self):
        out = {"type": self.kind}
        for name in self.fields:
            value = getattr(self, name)
            if value is not None:
                out[name] = vector_payload(value)
        return out


class Pinhole(_Camera):
    """Lines through a fixed center; bidegree (1, 0)."""

    kind = "pinhole"
    bidegree = (1, 0)
    fields = ("center",)

    def __init__(self, center):
        self.center = vec(center)
        if not np.any(self.center):
            raise DegenerateInput("pinhole center must be a point")
        self._data = self.focal_points = (self.center,)
        self._kept = _unit(self.center)

    def _project(self, X, c):
        # line_from_points: the wedge, and its zero test against
        # norm(center) * norm(x)
        lines = wedge(c, X)
        return lines, [("world point coincides with the center", lines,
                        ZERO_EPS, lambda: norm(c) * norm(X, -1))]

    def _residuals(self, P):
        lines, center = self._units(P)
        return _point_line(center, lines)


class TwoSlit(_Camera):
    """Transversals of two skew lines; bidegree (1, 1).

    The image of x is the meet of the planes (x v slit1) and (x v slit2),
    computed as the primal extraction of  P x x^T Q - Q x x^T P.
    """

    kind = "two_slit"
    bidegree = (1, 1)
    fields = ("slits",)
    slits = focal_lines = property(lambda self: (self.slit1, self.slit2))

    def __init__(self, slit1, slit2):
        self.slit1, self.slit2 = vec(slit1), vec(slit2)
        S = np.stack(common_type(self.slit1, self.slit2))
        # a float slit of no squarable norm projects at its binade
        self._slits = S if is_exact(S) else _squarable(S)[0]
        self._data = tuple(map(primal_matrix, self._slits))
        # the slits at unit norm, unitized floats or scaled Fractions, which
        # negligible compares with zero exactly
        self._kept = _unit(S)
        S = self._kept[0][0]
        if not negligible(plucker_quadric(S), eps=SLIT_EPS, axis=()).all():
            raise InvalidSlit("slit is not on the line quadric")
        if negligible(incidence(*S), eps=SLIT_EPS):
            raise InvalidSlit("slits must be skew (they meet)")

    def _project(self, X, P, Q):
        M = _slit_matrix(X, P, Q).reshape(-1, 16)
        # M23, -M13, M12, M03, -M02, M01, of M and -M flattened side by side
        lines = np.concatenate([M, -M], axis=1)[:, [11, 23, 6, 3, 18, 1]]
        return lines, [("world point lies on a slit", lines, FOCAL_EPS,
                        lambda: norm(self._slits[0]) * norm(self._slits[1])
                        * power(norm(X, -1), 2))]

    def _residuals(self, P):
        # the larger incidence residual of the two slits, from one call
        # that broadcasts each line against both
        return np.max(_incidence(*self._units(P[:, None])), axis=1)


def _slit_matrix(x, P, Q):
    """P x x^T Q - Q x x^T P of one point, or of each row of a stack as
    (N, 4, 4) with the same 4x4 products, P and Q the slits' matrices."""
    xxT = x[..., :, None] * x[..., None, :]     # np.outer of each row
    return P @ xxT @ Q - Q @ xxT @ P


def pushbroom_infinity_slit(p):
    """Second slit of a pushbroom camera: the line at infinity orthogonal
    (in the affine chart x0 != 0) to the finite slit p."""
    p = vec(p)
    return vec([0, 0, 0, p[2], -p[1], p[0]])


class Pushbroom(TwoSlit):
    """Two-slit camera whose second slit is the orthogonal line at
    infinity; determined by the finite slit alone."""

    kind = "pushbroom"
    fields = ("slit",)
    slit = property(lambda self: self.slit1)

    def __init__(self, slit):
        s = vec(slit)
        if negligible(s[:3], lambda: norm(s)):
            raise InvalidSlit("pushbroom slit must be finite "
                              "(direction part nonzero)")
        TwoSlit.__init__(self, s, pushbroom_infinity_slit(s))


def _secant(x0, x1, x2, x3):
    """The six coordinates of the secant of the standard twisted cubic
    through (x0 : x1 : x2 : x3), as a list; each coordinate may be an array
    (of the rows of a stack)."""
    f1 = x1 * x3 - x2 * x2
    f2 = x0 * x2 - x1 * x1
    f3 = x0 * x3 - x1 * x2
    big = (x0 * power(x2, 3) + power(x1, 3) * x3 - 3 * x0 * x2 * x1 * x3
           + power(x0, 2) * power(x3, 2))
    return [f2 * f2, f2 * f3, big, f1 * f2, f1 * f3, f1 * f1]


def secant_quadrics(p):
    """The five quadrics (beyond the line quadric) cutting out the secant
    congruence of the standard twisted cubic (of each column of a (6, N)
    stack, as (5, N))."""
    p01, p02, p03, p12, p13, p23 = vec(p)
    return np.array([
        p13 * p13 - p03 * p23 - p12 * p23,
        p12 * p13 - p02 * p23,
        p12 * p12 - p01 * p23,
        p02 * p12 - p01 * p13,
        p02 * p02 - p01 * p03 - p01 * p12,
    ])


def secant_system(x):
    """6x6 bilinear system whose rank-5 nullvector is the secant through x
    (standard twisted cubic, normal coordinates)."""
    x0, x1, x2, x3 = x = vec(x)
    return np.array([
        [0, 0, 0, x3, -x2, x1],
        [0, 0, 0, x2, -x1, x0],
        [0, x3, -x2, 0, 0, x0],
        [0, x2, -x1, -x1, x0, 0],
        [x3, 0, -x1, 0, x0, 0],
        [x2, -x1, 0, x0, 0, 0],
    ], dtype=x.dtype)


class TwistedCubic(_Camera):
    """Secants of a twisted cubic; bidegree (1, 3).

    ``homography`` (optional, invertible 4x4) moves the standard curve
    (s^3 : s^2 t : s t^2 : t^3); projection conjugates through it.
    """

    kind = "twisted_cubic"
    bidegree = (1, 3)
    fields = ("homography",)
    focal_curve = TWISTED_CUBIC_CURVE
    # H^-1 and compound2(H) in H's number type, and the float H^-1 and
    # compound2(H^-1) of the residuals and the system; None without H
    _data, _inverse, _line_inverse = (None, None), None, None

    def __init__(self, homography=None):
        if homography is not None:
            homography = vec(homography)
            if homography.shape != (4, 4):
                raise DegenerateInput("homography must be 4x4")
            Hf = as_float(homography)
            # tested at its binade, which no scale of H under- or overflows
            Hs, e = _binade(Hf)
            if (abs(np.linalg.det(Hs))
                    <= ZERO_EPS * np.linalg.norm(Hs, 2) ** 4):
                raise DegenerateInput("homography must be invertible")
            if abs(e) > HOMOGRAPHY_EXPONENT:
                Hf = Hs
            self._inverse = np.linalg.inv(Hf)
            self._line_inverse = compound2(self._inverse)
            self._data = (self._inverse, compound2(Hf))
            if is_exact(homography):
                # the rows (column j of H^-1, e_j) span [H | -I]'s nullspace
                basis = exact_nullspace(np.hstack([homography, -np.eye(4)]))
                self._data = (np.array(basis)[:, :4].T, compound2(homography))
            # H moves the standard curve's forms (unit vectors) to its rows
            self.focal_curve = RationalCurve(tuple(map(tuple, Hf.tolist())))
        self.homography = homography

    def _project(self, X, inverse, line_map):
        Xn = X if inverse is None else np.matvec(inverse, X)
        ell = np.stack(_secant(*Xn.T), axis=-1)
        lines = ell if line_map is None else np.matvec(line_map, ell)
        return lines, [("world point lies on the twisted cubic", ell,
                        FOCAL_EPS, lambda: power(norm(Xn, -1), 4))]

    def _residuals(self, P):
        P = as_float(P)
        if self._line_inverse is not None:
            P = np.matvec(self._line_inverse, P)
        pn = unitize(P)
        vals = np.abs(secant_quadrics(pn.T))
        return np.maximum(np.max(vals, axis=0), line_residual(pn))

    def system(self, x):
        """Rank-5 system for the secant through x, pulled back through the
        homography so that system(x) @ project(x) == 0."""
        if self.homography is None:
            return secant_system(x)
        xn = self._inverse @ as_float(vec(x))
        return secant_system(xn) @ self._line_inverse


def sum_of_two_cubes(x, tol: float = DEFAULT_TOL):
    """Decompose the binary cubic x0 u^3 + 3 x1 u^2 v + 3 x2 u v^2 + x3 v^3
    as l1^3-weighted sum of two cubes.

    Returns (parameters, weights): parameters is a 2x2 array of projective
    roots (s_i : t_i), the linear forms being s_i*u + t_i*v, and weights
    the coefficients so that sum_i w_i (s_i u + t_i v)^3 reproduces the
    cubic (checked to 1e-9 relative).
    """
    x = as_float(vec(x))
    if x.shape != (4,):
        raise DegenerateInput("need four cubic coefficients")
    xs = unitize(x)
    x0, x1, x2, x3 = xs
    # apolar quadratic: kernel of the 2x3 catalecticant [[x0,x1,x2],[x1,x2,x3]]
    m0 = x1 * x3 - x2 * x2
    m1 = x0 * x3 - x1 * x2
    m2 = x0 * x2 - x1 * x1
    quad = np.array([m0, -m1, m2])
    if norm(quad) <= ZERO_EPS:                  # relative: xs is unitized
        raise DegenerateCubic("cubic is a perfect cube (point on the curve)")
    disc = m1 * m1 - 4 * m0 * m2
    if abs(disc) <= tol * norm(quad) ** 2:
        raise DegenerateCubic("repeated linear form (secant degenerates "
                              "to a tangent)")
    s, t, _ = binary_roots(quad)
    params = np.stack([s, t], axis=1)
    cols = np.array([
        [s ** 3, s ** 2 * t, s * t ** 2, t ** 3] for (s, t) in params
    ]).T
    weights, *_ = np.linalg.lstsq(cols, xs.astype(complex), rcond=None)
    recon = cols @ weights
    err = norm(recon - xs)
    if err > TWO_CUBES_EPS:
        raise DegenerateCubic("two-cube reconstruction failed (residual %.2e)"
                              % err)
    weights = weights * norm(x)     # weights for the caller's scaling of x
    if (np.max(np.abs(params.imag)) < IMAGINARY_EPS
            and np.max(np.abs(weights.imag)) < IMAGINARY_EPS):
        params, weights = params.real, weights.real
    return params, weights


def _binary_coeffs(values, name):
    c = vec(list(values))
    if c.ndim != 1 or len(c) < 1:
        raise DegenerateInput("%s must be a nonempty coefficient vector" % name)
    return c


class _Pencil(_Camera):
    """What Type3 and Type4 share: the line of x lies in the plane through
    the base line L = V(x0, x1) with pencil parameter (x0 : x1), and joins
    x to the curve point (s f : t f : g : h) at (s : t) = (x0 : x1), which
    is (0 : 0 : g : h) on L for Type4 (f None); ``_data`` = (f, g, h)."""

    beta = property(lambda self: len(self.g) - 1)
    bidegree = property(lambda self: (1, self.beta))
    fields = ("f", "g", "h")

    def __init__(self, f, g, h):
        g = _binary_coeffs(g, "g")
        h = _binary_coeffs(h, "h")
        if len(g) != len(h):
            raise DegenerateInput("g and h must have equal degree")
        self.f, self.g, self.h = self._data = (f, g, h)
        self.focal_lines = (vec([0.0, 0, 0, 0, 0, 1]),)  # the base line L

    def _project(self, X, *data):
        """x is focal on the base line (Y = 0) and, with the kind's
        ``_join`` message, where the join of x and Y is 0."""
        Y = _curve_points(X, *data)
        lines = wedge(X, Y)
        return lines, [
            ("world point lies on the base line", Y, FOCAL_EPS,
             lambda: power(norm(X, -1), self.beta)
             * max(norm(d) for d in data if d is not None)),
            (self._join, lines, ZERO_EPS,
             lambda: norm(X, -1) * norm(Y, -1))]

    def _residuals(self, P):
        """In floats: p must meet L, its meets with x2 = 0 and x3 = 0 must
        share one (x0:x1), and p must pass through the curve point there."""
        pn = unitize(as_float(P))
        c1 = pn[:, [1, 3]]      # (p02, p12): meet with x2 = 0
        c2 = pn[:, [2, 4]]      # (p03, p13): meet with x3 = 0
        n1, n2 = row_norms(c1), row_norms(c2)
        x01 = np.where((n1 >= n2)[:, None], c1, c2)
        W = _curve_points(np.concatenate([x01, np.zeros_like(x01)], axis=1),
                          *map(as_float, self._data))
        r = np.maximum(np.abs(pn[:, 0]), line_residual(pn))
        meets = np.maximum(n1, n2) > PENCIL_EPS
        r[meets] = np.maximum(r[meets], np.abs(pn[meets, 1] * pn[meets, 4]
                                               - pn[meets, 2] * pn[meets, 3]))
        on = meets & (row_norms(W) > PENCIL_EPS)
        r[on] = np.maximum(r[on], point_line_residual(W[on], pn[on]))
        return r


class Type3(_Pencil):
    """Lines meeting the base line L = V(x0, x1) and the curve
    X(s:t) = (s f : t f : g : h), with deg f = beta - 1, deg g = deg h = beta.

    X meets L at the beta-1 roots of f; bidegree (1, beta).
    """

    kind = "type3"
    _join = "world point lies on the curve"

    def __init__(self, f, g, h):
        f = _binary_coeffs(f, "f")
        _Pencil.__init__(self, f, g, h)
        if len(f) != len(self.g) - 1:
            raise DegenerateInput("deg f must be deg g - 1")
        if not np.any(f):               # norm(f) may underflow to 0
            raise DegenerateInput("f == 0 defines a Type4 camera; "
                                  "use Type4(g, h)")
        self.focal_curve = RationalCurve(
            (tuple(f) + (0,), (0,) + tuple(f), tuple(self.g), tuple(self.h)))


class Type4(_Pencil):
    """Degenerate class: focal locus is the base line L = V(x0, x1) doubled.
    A line of the congruence lies in a plane through L and passes through
    the point (0 : 0 : g : h) of L picked by the plane's pencil parameter."""

    kind = "type4"
    _join = "world point maps into the base line"

    def __init__(self, g, h):
        _Pencil.__init__(self, None, g, h)
        g, h = common_type(self.g, self.h)
        minors = np.outer(g, h) - np.outer(h, g)
        if negligible(minors, lambda: max(norm(g) * norm(h),
                                          PROPORTIONAL_FLOOR)):
            raise DegenerateInput(
                "g and h are proportional: the target point is constant "
                "and the congruence degenerates")


def _curve_points(X, f, g, h):
    """The point (s f : t f : g : h) of a Type3 curve at (s : t) = (x0 : x1)
    of each row of a stack, or Type4's (0 : 0 : g : h) when f is None."""
    s, t = X[:, 0], X[:, 1]
    gv, hv = binary_eval(g, s, t), binary_eval(h, s, t)
    if f is None:
        zero = np.zeros_like(gv)
        return np.stack([zero, zero, gv, hv], axis=-1)
    fv = binary_eval(f, s, t)
    return np.stack([s * fv, t * fv, gv, hv], axis=-1)


def reference_type3() -> Type3:
    """The worked beta = 3 example: f = s^2 - t^2, g = s^3, h = t^3.
    Its curve meets the base line at (0:0:1:1) and (0:0:1:-1)."""
    return Type3(f=(1.0, 0.0, -1.0), g=(1.0, 0.0, 0.0, 0.0),
                 h=(0.0, 0.0, 0.0, 1.0))


def reference_type4() -> Type4:
    """Degenerate companion of :func:`reference_type3` (f -> 0)."""
    return Type4(g=(1.0, 0.0, 0.0, 0.0), h=(0.0, 0.0, 0.0, 1.0))


class PanoramicNC(_Camera):
    """Order-two congruence of lines meeting the axis V(x1, x2) and the
    unit circle in the plane x3 = 0; bidegree (2, 2).  Has no single-line
    projection; use the fiber machinery instead."""

    kind = "panoramic_nc"
    bidegree = (2, 2)

    def project(self, x):
        raise UnsupportedOrder("order-two congruence: two lines per point; "
                               "use panoramic_fibers")

    def generator_values(self, p):
        """The generators at one line, or at each row of an (N, 6) stack."""
        c = vec(p).T
        return np.stack([c[3], power(c[2], 2) - power(c[4], 2)
                         - power(c[5], 2), plucker_quadric(c.T)], axis=-1)

    def _residuals(self, P):
        return np.max(np.abs(self.generator_values(unitize(as_float(P)))),
                      axis=-1)

    def focal_residual(self, x) -> float:
        """|(x1^2 + x2^2) x3^2| at unit norm: the focal quartic."""
        x = unitize(as_float(vec(x)))
        return abs((x[1] ** 2 + x[2] ** 2) * x[3] ** 2)


class PanoramicStereo(PanoramicNC):
    """Dual congruence of :class:`PanoramicNC`: the lines whose duals
    (:func:`plucker.dual_line`) lie in it.  They meet the line V(x0, x3)
    and lie in a tangent plane of the cone x1^2 + x2^2 = x0^2 with apex
    (0 : 0 : 0 : 1); bidegree (2, 2)."""

    kind = "panoramic_stereo"

    def generator_values(self, p):
        """:class:`PanoramicNC`'s generators at the dual of one line, or of
        each row of an (N, 6) stack (negation and reordering are exact)."""
        return PanoramicNC.generator_values(self, dual_line(p))

    def focal_residual(self, x) -> float:
        """|x0^2 (x0^2 - x1^2 - x2^2)| at unit norm: the focal quartic."""
        x = unitize(as_float(vec(x)))
        return abs(x[0] ** 2 * (x[0] ** 2 - x[1] ** 2 - x[2] ** 2))


# --------------------------------------------------------------------------
# functional forms of the two camera methods, which the benchmark tracer
# wraps by name

def project(cam, x):
    """The line of one point, or ``(lines, focal)`` for an (N, 4) stack of
    points (see the module docstring)."""
    return cam.project(x)


def congruence_residual(cam, p):
    """Membership residual of one line, or the N residuals of an (N, 6)
    stack of lines, in the camera's congruence."""
    return cam.congruence_residual(p)


def camera_from_payload(data, exact: bool = False):
    """Build a camera from its JSON descriptor."""
    kind = data.get("type")

    def field(key):
        if key not in data:
            raise DegenerateInput("%s camera needs %r" % (kind, key))
        return data[key]

    def vector(key, length=None):
        return parse_vector(field(key), length, exact)

    if kind == "pinhole":
        return Pinhole(vector("center", 4))
    if kind == "two_slit":
        s1, s2 = field("slits")
        return TwoSlit(parse_vector(s1, 6, exact), parse_vector(s2, 6, exact))
    if kind == "pushbroom":
        return Pushbroom(vector("slit", 6))
    if kind == "twisted_cubic":
        H = data.get("homography")
        if H is not None:
            if not isinstance(H, list):
                raise DegenerateInput("'homography' must be a list of rows, "
                                      "got %r" % (H,))
            H = np.array([parse_vector(r, 4, exact) for r in H])
        return TwistedCubic(homography=H)
    if kind == "type3":
        return Type3(vector("f"), vector("g"), vector("h"))
    if kind == "type4":
        return Type4(vector("g"), vector("h"))
    if kind == "panoramic_nc":
        return PanoramicNC()
    if kind == "panoramic_stereo":
        return PanoramicStereo()
    raise DegenerateInput("unknown camera type %r" % kind)
