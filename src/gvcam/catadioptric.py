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
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateInput, FocalConfiguration, IsotropicDirection,
                     IsotropicPlane, IsotropicTangent, NotOnSurface,
                     SingularIntersection, SingularPoint)
from .numeric import (DEFAULT_TOL, ZERO_EPS, as_float, binary_mul,
                      binary_roots, compound2, is_exact, negligible, norm,
                      realify, unitize, vec)
from .plucker import (dual_line, line_from_planes, line_from_points,
                      meet_point, point_line_residual, points_on_line,
                      primal_matrix)

__all__ = [
    "MirrorSurface", "ReflectionMap", "direction_cos", "reflect_point",
    "reflect_line", "tangent_plane", "specular_pair", "mirror_pair_residual",
    "line_surface_points", "conic_chord_points", "panoramic_fibers",
    "reference_ellipsoid", "unit_sphere",
]

def _spatial_square(a):
    return a[1] * a[1] + a[2] * a[2] + a[3] * a[3]


def direction_cos(x, y):
    """Cosine of the angle between two directions (points at infinity)."""
    x, y = as_float(vec(x)), as_float(vec(y))
    for v in (x, y):
        if abs(v[0]) > 1e-12 * norm(v):
            raise DegenerateInput("directions must have first coordinate 0")
        if abs(_spatial_square(v)) <= ZERO_EPS * norm(v) ** 2:
            raise IsotropicDirection("direction squares to zero")
    num = x[1] * y[1] + x[2] * y[2] + x[3] * y[3]
    return float(num / math.sqrt(_spatial_square(x) * _spatial_square(y)))


@dataclass(frozen=True)
class ReflectionMap:
    """Reflection across a non-isotropic plane, with its 4x4 point action
    and 6x6 line action precomputed."""

    plane: np.ndarray
    matrix: np.ndarray
    line_matrix: np.ndarray

    def __init__(self, plane):
        H = vec(plane)
        s = _spatial_square(H)
        if negligible(s, norm(H) ** 2):
            raise IsotropicPlane("plane normal squares to zero")
        normal = vec([0, H[1], H[2], H[3]])
        rho = s * np.eye(4, dtype=H.dtype) - 2 * np.outer(normal, H)
        rho = vec(rho)
        object.__setattr__(self, "plane", H)
        object.__setattr__(self, "matrix", rho)
        object.__setattr__(self, "line_matrix", compound2(rho))

    def point(self, y):
        return vec(self.matrix @ vec(y))

    def line(self, p):
        return vec(self.line_matrix @ vec(p))


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
    if "," in key:
        parts = tuple(int(t) for t in key.split(","))
    else:
        parts = tuple(int(ch) for ch in key)
    if len(parts) != 4 or any(e < 0 for e in parts):
        raise DegenerateInput("bad exponent key %r" % (key,))
    return parts


@dataclass(frozen=True)
class MirrorSurface:
    """Smooth surface V(f) for a homogeneous polynomial f of degree d,
    stored as {exponent 4-tuple: coefficient}."""

    degree: int
    coeffs: tuple  # of ((e0,e1,e2,e3), value) pairs

    def __init__(self, degree, coeffs):
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            items = coeffs
        table = []
        for key, val in items:
            expo = _parse_exponents(key) if isinstance(key, str) else tuple(key)
            if sum(expo) != degree:
                raise DegenerateInput(
                    "monomial %s does not have degree %d" % (expo, degree))
            table.append((expo, val))
        if not table:
            raise DegenerateInput("surface needs at least one coefficient")
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "coeffs", tuple(sorted(table)))

    def scale(self) -> float:
        return max(abs(complex(v)) for _, v in self.coeffs)

    def evaluate(self, x):
        x = vec(x)
        total = 0
        for expo, c in self.coeffs:
            term = c
            for xi, e in zip(x, expo):
                if e:
                    term = term * xi ** e
            total = total + term
        return total

    def gradient(self, x):
        x = vec(x)
        out = [0, 0, 0, 0]
        for expo, c in self.coeffs:
            for j in range(4):
                if expo[j] == 0:
                    continue
                term = c * expo[j]
                for i in range(4):
                    e = expo[i] - (1 if i == j else 0)
                    if e:
                        term = term * x[i] ** e
                out[j] = out[j] + term
        return vec(out)

    def restrict_to_line(self, a, b):
        """Binary form f(s*a + t*b) of degree d (coefficient vector)."""
        a, b = vec(a), vec(b)
        exact = is_exact(a) and is_exact(b)
        zero = 0 if exact else 0.0
        total = np.array([zero] * (self.degree + 1),
                         dtype=object if exact else None)
        for expo, c in self.coeffs:
            form = np.array([c], dtype=object if exact else None)
            for i in range(4):
                for _ in range(expo[i]):
                    form = binary_mul(form, [a[i], b[i]])
            total = total + np.pad(form, (0, self.degree + 1 - len(form)))
        return vec(total)

    def payload(self):
        from .numeric import format_scalar
        return {"degree": self.degree,
                "coeffs": {"%d%d%d%d" % e if max(e) < 10 else
                           ",".join(map(str, e)): format_scalar(v)
                           for e, v in self.coeffs}}

    @classmethod
    def from_payload(cls, data, exact: bool = False):
        from .numeric import parse_scalar
        if not isinstance(data, dict) or "degree" not in data \
                or not isinstance(data.get("coeffs"), dict):
            raise DegenerateInput(
                "surface payload needs 'degree' and a 'coeffs' object")
        return cls(int(data["degree"]),
                   {k: parse_scalar(v, exact=exact)
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


ELLIPSOID_FOCI = (vec([1.0, 0, 0, 3]), vec([1.0, 0, 0, -3]))


def ellipsoid_point(theta: float, phi: float):
    """Point of :func:`reference_ellipsoid` at spherical parameters."""
    return vec([1.0, 4 * math.sin(theta) * math.cos(phi),
                4 * math.sin(theta) * math.sin(phi), 5 * math.cos(theta)])


def tangent_plane(S: MirrorSurface, x, tol: float = DEFAULT_TOL):
    """Gradient covector of S at a smooth surface point."""
    xu = unitize(as_float(vec(x)))
    val = abs(complex(S.evaluate(xu))) / S.scale()
    if val > tol:
        raise NotOnSurface("surface residual %.3e exceeds tol" % val)
    g = S.gradient(xu)
    if norm(g) <= 1e-10 * S.scale():
        raise SingularPoint("gradient vanishes at this point")
    return g


def specular_pair(S: MirrorSurface, x, L, tol: float = DEFAULT_TOL):
    """Reflected partner of the line L at its surface point x: the mirror
    image of L across the tangent plane of S at x."""
    if point_line_residual(x, L) > tol:
        raise DegenerateInput("the line does not pass through the point")
    H = tangent_plane(S, x, tol=tol)
    try:
        return reflect_line(H, L)
    except IsotropicPlane:
        raise IsotropicTangent("tangent plane at the contact point is "
                               "isotropic") from None


def line_surface_points(S: MirrorSurface, L, real_tol: float = 1e-7):
    """Real intersection points of a line with the surface, via roots of
    the degree-d restriction of f to the line."""
    a, b = points_on_line(unitize(as_float(vec(L))))
    form = S.restrict_to_line(a, b)
    if norm(form) <= 1e-13 * S.scale() * max(norm(a), norm(b)) ** S.degree:
        # the whole line lies on the surface
        return [vec(a), vec(b)]
    out = []
    for s, t in binary_roots(as_float(form).astype(complex)):
        m = max(abs(s), abs(t))
        if abs(complex(s).imag) / m > real_tol or \
           abs(complex(t).imag) / m > real_tol:
            continue
        out.append(vec((s.real if np.iscomplexobj(s) else float(s)) * a
                       + (t.real if np.iscomplexobj(t) else float(t)) * b))
    return out


def mirror_pair_residual(S: MirrorSurface, L, Lp,
                         tol: float = DEFAULT_TOL) -> float:
    """Deviation of (L, L') from being a specular pair for S: minimum over
    real contact points x of L with S of the projective distance between
    L' and the reflection of L at x.  Returns math.inf when L misses the
    surface in real points."""
    from .numeric import projective_distance
    L = unitize(as_float(vec(L)))
    Lp = unitize(as_float(vec(Lp)))
    best = math.inf
    for x in line_surface_points(S, L):
        g = S.gradient(unitize(as_float(x)))
        if norm(g) <= 1e-10 * S.scale():
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
    roots = binary_roots(np.array([a, b, c]))
    return [vec(realify(s * z1 + t * z2)[0]) for s, t in roots]


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
    if cam.focal_residual(x) <= 1e-12:
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
