"""Mirrors and reflections: plane reflections acting on points and lines,
specular line pairs on smooth algebraic surfaces, and the fibers of the
two panoramic (order-two) congruences.

The reflection across a plane H = (a0, a1, a2, a3) is the linear
involution rho_H = s*I - 2*(0,a1,a2,a3)^T H with s = a1^2 + a2^2 + a3^2;
it acts on lines through its second compound matrix.  A pair of lines
through a surface point is specular when they are reflections of each
other across the tangent plane there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational, Real

import numpy as np

from .errors import (DegenerateInput, FocalConfiguration, IsotropicDirection,
                     IsotropicPlane, IsotropicTangent, NotOnSurface,
                     SingularIntersection, SingularPoint)
from .numeric import (DEFAULT_TOL, FORM_EPS, REAL_EPS, ZERO_EPS, as_float,
                      binary_roots, compound2, format_scalar, is_exact,
                      negligible_each, norm, parse_scalar, power,
                      projective_distance, realify, row_norms, unitize, vec)
from .plucker import (dual_line, line_from_planes, line_from_points,
                      meet_point, point_line_residual, points_on_line,
                      primal_matrix)

__all__ = [
    "MirrorSurface", "ReflectionMap", "direction_cos", "reflect_point",
    "reflect_line", "tangent_plane", "specular_pair", "mirror_pair_residual",
    "line_surface_points", "conic_chord_points", "panoramic_fibers",
    "reference_ellipsoid", "unit_sphere",
]

#: Gradient size, relative to the surface's coefficient scale, below which
#: a surface point counts as singular.
SINGULAR_EPS = 1e-10

#: Highest surface degree read.  Past it the float roots of a line's
#: restriction stop lying on the surface: over 100 random lines on
#: x1^d + x2^d / 2 = x0^d the worst residual is 2e-9 at d = 24, 7e-9 at 32
#: and 0.4 at 48.  It also bounds the work, which grows as d^3 per line.
MAX_DEGREE = 24

#: Characters of a malformed exponent key quoted in its error message.
KEY_ECHO = 32


def _spatial_square(a):
    return a[1] * a[1] + a[2] * a[2] + a[3] * a[3]


def direction_cos(x, y):
    """Cosine of the angle between two directions (points at infinity)."""
    x, y = as_float(vec(x)), as_float(vec(y))
    for v in (x, y):
        if abs(v[0]) > ZERO_EPS * norm(v):
            raise DegenerateInput("directions must have first coordinate 0")
        if abs(_spatial_square(v)) <= ZERO_EPS * norm(v) ** 2:
            raise IsotropicDirection("direction squares to zero")
    num = x[1] * y[1] + x[2] * y[2] + x[3] * y[3]
    return float(num / math.sqrt(_spatial_square(x) * _spatial_square(y)))


class ReflectionMap:
    """Reflection across a non-isotropic plane, with its 4x4 point action
    ``matrix`` and 6x6 line action ``line_matrix`` precomputed.  A float
    (n, 4) stack of planes gives stacks of actions, which act row by row on
    stacks of points or lines."""

    def __init__(self, plane):
        H = vec(plane)
        s = _spatial_square(H.T)
        if np.any(negligible_each(s, np.float_power(row_norms(as_float(H)),
                                                    2))):
            raise IsotropicPlane("plane normal squares to zero")
        normal = H.copy()
        normal[..., 0] = 0
        rho = (np.asarray(s)[..., None, None] * np.eye(4, dtype=H.dtype)
               - 2 * (normal[..., :, None] * H[..., None, :]))
        self.plane, self.matrix, self.line_matrix = H, rho, compound2(rho)

    # contiguous operands, so that a stacked matvec rounds as ``@`` does
    def point(self, y):
        return np.matvec(self.matrix, np.ascontiguousarray(vec(y)))

    def line(self, p):
        return np.matvec(self.line_matrix, np.ascontiguousarray(vec(p)))


def reflect_point(H, y):
    """Mirror image of the point y across the plane H."""
    return ReflectionMap(H).point(y)


def reflect_line(H, p):
    """Mirror image of the line p across the plane H (second compound of
    the point reflection; equals the join of the reflected points)."""
    return ReflectionMap(H).line(p)


# --------------------------------------------------------------------------
# surfaces

def _parse_exponents(key):
    try:
        parts = tuple(map(int, key.split(",") if "," in key else key))
    except ValueError:
        parts = ()
    if len(parts) != 4 or any(e < 0 for e in parts):
        shown = key if len(key) <= KEY_ECHO else key[:KEY_ECHO] + "..."
        raise DegenerateInput("bad exponent key %r" % (shown,))
    return parts


class MirrorSurface:
    """Smooth surface V(f) for a homogeneous polynomial f of degree d with
    real coefficients, stored as {exponent 4-tuple: coefficient}.

    Every method takes one point (or pair of points) or an (n, 4) stack
    of them, and loops over the monomials, not over the points, with the
    same array expressions on float (or complex) stacks and, when every
    input and coefficient is exact, on Fraction stacks.  A float input
    meets the coefficient c as ``float(c)``, and ``float(c * e)`` in the
    gradient, which is what Python's mixed Fraction-float product does;
    powers go through :func:`numeric.power`, which rounds as the scalar
    ``**`` does.  ``coeffs`` holds sorted ((e0, e1, e2, e3), value) pairs.
    """

    def __init__(self, degree, coeffs):
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            items = coeffs
        if not 1 <= degree <= MAX_DEGREE:
            raise DegenerateInput("a surface needs a degree from 1 to %d"
                                  % MAX_DEGREE)
        table = []
        for key, val in items:
            expo = _parse_exponents(key) if isinstance(key, str) else tuple(key)
            if any(e > MAX_DEGREE for e in expo):   # not echoed: may be huge
                raise DegenerateInput("a monomial exponent exceeds %d"
                                      % MAX_DEGREE)
            if sum(expo) != degree:
                raise DegenerateInput(
                    "monomial %s does not have degree %d" % (expo, degree))
            if not isinstance(val, Real):
                raise DegenerateInput(
                    "coefficient %r is not a real number" % (val,))
            table.append((expo, val))
        if not table:
            raise DegenerateInput("surface needs at least one coefficient")
        self.degree = int(degree)
        self.coeffs = tuple(sorted(table))
        self._scale = max(abs(complex(v)) for _, v in self.coeffs)
        if not self._scale:
            raise DegenerateInput("every coefficient of the surface is zero")
        # the table for Fraction stacks, when every coefficient is rational
        exact = all(isinstance(c, Rational) for _, c in self.coeffs)
        self._exact_terms = tuple(
            (expo, c, tuple(c * e for e in expo)) for expo, c in self.coeffs
        ) if exact else None
        self._float_terms = tuple(
            (expo, float(c), tuple(float(c * e) for e in expo))
            for expo, c in self.coeffs)

    def scale(self) -> float:
        return self._scale

    def _stacks(self, *points):
        """The points as 2-d stacks of Fractions when every one and every
        coefficient is exact, else of floats of at least float64 precision
        (integer and float32 input is widened), with the coefficient table
        and the zero of that number type."""
        stacks = [np.atleast_2d(x) for x in points]
        if self._exact_terms is not None and all(map(is_exact, stacks)):
            return stacks, self._exact_terms, Fraction(0)
        stacks = [as_float(x) for x in stacks]
        return ([x.astype(np.result_type(x, np.float64), copy=False)
                 for x in stacks], self._float_terms, 0.0)

    def evaluate(self, x):
        """f(x), or f of each row of an (n, 4) stack."""
        x = vec(x)
        (X,), terms, zero = self._stacks(x)
        total = np.full(len(X), zero, dtype=X.dtype)
        for expo, c, _ in terms:
            term = c
            for i, e in enumerate(expo):
                if e:
                    term = term * power(X[:, i], e)
            total += term
        return total if x.ndim == 2 else total[0]

    def gradient(self, x):
        """Gradient covector of f at x, or at each row of an (n, 4) stack."""
        x = vec(x)
        (X,), terms, zero = self._stacks(x)
        out = np.full(X.shape, zero, dtype=X.dtype)
        for expo, _, factors in terms:
            for j in range(4):
                if expo[j] == 0:
                    continue
                term = factors[j]
                for i in range(4):
                    e = expo[i] - (1 if i == j else 0)
                    if e:
                        term = term * power(X[:, i], e)
                out[:, j] += term
        return out if x.ndim == 2 else out[0]

    def restrict_to_line(self, a, b):
        """Binary form f(s*a + t*b) of degree d (coefficient vector), or
        the (n, d + 1) forms of two (n, 4) stacks of points."""
        a, b = vec(a), vec(b)
        (A, B), terms, zero = self._stacks(a, b)
        total = np.full((len(A), self.degree + 1), zero,
                        dtype=np.result_type(A, B))
        for expo, c, _ in terms:
            form = [c]
            for i in range(4):
                for _ in range(expo[i]):   # form * (a_i s + b_i t)
                    out = [zero] * (len(form) + 1)
                    for k, f in enumerate(form):
                        out[k] = out[k] + f * A[:, i]
                        out[k + 1] = out[k + 1] + f * B[:, i]
                    form = out
            total += np.stack(form, axis=1)
        return total if a.ndim == 2 else total[0]

    def payload(self):
        return {"degree": self.degree,
                "coeffs": {"%d%d%d%d" % e if max(e) < 10 else
                           ",".join(map(str, e)): format_scalar(v)
                           for e, v in self.coeffs}}

    @classmethod
    def from_payload(cls, data, exact: bool = False):
        if not isinstance(data, dict) or "degree" not in data \
                or not isinstance(data.get("coeffs"), dict):
            raise DegenerateInput(
                "surface payload needs 'degree' and a 'coeffs' object")
        degree = data["degree"]
        if type(degree) is float and degree.is_integer():
            degree = int(degree)        # a whole number written as 2.0
        if type(degree) is not int:
            raise DegenerateInput("surface 'degree' must be an integer, "
                                  "got %r" % (degree,))
        return cls(degree, {k: parse_scalar(v, exact=exact)
                            for k, v in data["coeffs"].items()})


def unit_sphere() -> MirrorSurface:
    return MirrorSurface(2, {(2, 0, 0, 0): -1.0, (0, 2, 0, 0): 1.0,
                             (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0})


def reference_ellipsoid() -> MirrorSurface:
    """Ellipsoid with semi-axes (4, 4, 5): x1^2/16 + x2^2/16 + x3^2/25 = x0^2.
    Its foci on the long axis are (1 : 0 : 0 : +-3)."""
    return MirrorSurface(2, {(2, 0, 0, 0): -1.0,
                             (0, 2, 0, 0): 1.0 / 16,
                             (0, 0, 2, 0): 1.0 / 16,
                             (0, 0, 0, 2): 1.0 / 25})


def tangent_plane(S: MirrorSurface, x, tol: float = DEFAULT_TOL):
    """Gradient covector of S at a smooth surface point, or at each point
    of an (n, 4) stack (the first bad point raises)."""
    x = as_float(vec(x))
    xu = unitize(np.atleast_2d(x))
    val = np.abs(S.evaluate(xu)) / S.scale()
    bad = np.flatnonzero(val > tol)
    if bad.size:
        raise NotOnSurface("surface residual %.3e exceeds tol" % val[bad[0]])
    g = S.gradient(xu)
    if np.any(row_norms(g) <= SINGULAR_EPS * S.scale()):
        raise SingularPoint("gradient vanishes at this point")
    return g if x.ndim == 2 else g[0]


def specular_pair(S: MirrorSurface, x, L, tol: float = DEFAULT_TOL):
    """Reflected partner of the line L at its surface point x: the mirror
    image of L across the tangent plane of S at x.  Row by row for an
    (n, 4) stack of points and an (n, 6) stack of lines."""
    x, L = as_float(vec(x)), as_float(vec(L))
    if np.any(point_line_residual(x, L) > tol):
        raise DegenerateInput("the line does not pass through the point")
    H = tangent_plane(S, x, tol=tol)
    try:
        return reflect_line(H, L)
    except IsotropicPlane:
        raise IsotropicTangent("tangent plane at the contact point is "
                               "isotropic") from None


def line_surface_points(S: MirrorSurface, L):
    """Real intersection points of a line with the surface: the real roots
    of the degree-d restriction of f to the line, the forms of all lines
    found by one :func:`numeric.binary_roots` call.

    One line gives the list of its points.  An (n, 6) stack gives the pair
    (points, rows): the (m, 4) points of all lines, line by line, and the
    line index of each.  A line lying on the surface gives its two
    spanning points.
    """
    L = as_float(vec(L))
    d = S.degree
    a, b = points_on_line(unitize(np.atleast_2d(L)))
    forms = S.restrict_to_line(a, b)
    whole = row_norms(forms) <= FORM_EPS * S.scale() * np.float_power(
        np.maximum(row_norms(a), row_norms(b)), d)
    forms[whole] = 0                    # finds no root
    s, t, found = binary_roots(forms)
    if d == 1:      # a slot for the second spanning point of a whole line
        s, t, found = (np.pad(x, ((0, 0), (0, 1)), constant_values=v)
                       for x, v in zip((s, t, found), (0, 1, False)))
    m = np.maximum(np.abs(s), np.abs(t))
    real = found & ~(np.abs(s.imag) / m > REAL_EPS) \
        & ~(np.abs(t.imag) / m > REAL_EPS)
    points = (s.real[..., None] * a[:, None, :]
              + t.real[..., None] * b[:, None, :])
    points[whole, 0], points[whole, 1] = a[whole], b[whole]
    real[whole] = np.arange(s.shape[1]) < 2
    if L.ndim == 2:
        return points[real], np.nonzero(real)[0]
    return list(points[0, real[0]])


def mirror_pair_residual(S: MirrorSurface, L, Lp,
                         tol: float = DEFAULT_TOL) -> float:
    """Deviation of (L, L') from being a specular pair for S: minimum over
    real contact points x of L with S of the projective distance between
    L' and the reflection of L at x.  Returns math.inf when L misses the
    surface in real points."""
    L = unitize(as_float(vec(L)))
    Lp = unitize(as_float(vec(Lp)))
    best = math.inf
    for x in line_surface_points(S, L):
        g = S.gradient(unitize(as_float(x)))
        if norm(g) <= SINGULAR_EPS * S.scale():
            raise SingularIntersection(
                "the line meets the surface at a singular point")
        try:
            refl = reflect_line(g, L)
        except IsotropicPlane:
            continue
        best = min(best, projective_distance(unitize(as_float(refl)), Lp))
    return best


# --------------------------------------------------------------------------
# panoramic congruence fibers

def _nc_data():
    axis = vec([0.0, 0, 1, 0, 0, 0])          # V(x1, x2)
    qmat = vec(np.diag([-1.0, 1.0, 1.0, 0.0]))  # x1^2 + x2^2 - x0^2
    plane = vec([0.0, 0, 0, 1])               # conic lives in x3 = 0
    return axis, qmat, plane


def conic_chord_points(qmat, carrier):
    """Points where a line (inside the conic's plane) meets the conic:
    real points as float vectors, complex ones as complex vectors."""
    z1, z2 = points_on_line(carrier)
    z1 = as_float(z1).astype(complex)
    z2 = as_float(z2).astype(complex)
    Q = as_float(qmat)
    a = z1 @ Q @ z1
    b = 2.0 * (z1 @ Q @ z2)
    c = z2 @ Q @ z2
    s, t, found = binary_roots(np.array([a, b, c]))
    if not found.all():
        raise DegenerateInput("the line lies on the conic")
    return [vec(realify(si * z1 + ti * z2)[0]) for si, ti in zip(s, t)]


def panoramic_fibers(cam, x, tol: float = DEFAULT_TOL):
    """The two congruence lines through a generic point of an order-two
    panoramic camera.

    Non-central variant: lines meeting the axis V(x1,x2) and the circle
    {x3 = 0, x1^2 + x2^2 = x0^2}; the plane through x and the axis cuts
    the circle in two points, joined back to x.  Stereo variant: duals of
    the non-central lines lying in the plane with x's coordinates.
    FocalConfiguration on the focal quartic, where the count degenerates.
    """
    kind = getattr(cam, "kind", None)
    if kind not in ("panoramic_nc", "panoramic_stereo"):
        raise DegenerateInput("expected a panoramic camera, got %r" % kind)
    x = unitize(as_float(vec(x)))
    if cam.focal_residual(x) <= ZERO_EPS:
        raise FocalConfiguration("point lies on the focal quartic")
    axis, qmat, plane = _nc_data()

    if kind == "panoramic_nc":
        pi = primal_matrix(axis) @ x          # plane through x and the axis
        carrier = line_from_planes(pi, plane)
        fibers = []
        for w in conic_chord_points(qmat, carrier):
            fibers.append(line_from_points(
                x.astype(w.dtype) if np.iscomplexobj(w) else x, w))
        return [vec(f) for f in fibers]

    # stereo: find the non-central lines lying in the plane u = x, dualize
    u = x
    y0 = meet_point(axis, u)                  # axis point in the plane
    carrier = line_from_planes(u, plane)
    fibers = []
    for w in conic_chord_points(qmat, carrier):
        y0c = y0.astype(w.dtype) if np.iscomplexobj(w) else y0
        fibers.append(dual_line(line_from_points(y0c, w)))
    return [vec(f) for f in fibers]
