"""Shared helpers for the test suite.

All randomness is seeded per test so runs are reproducible; helpers
return plain numpy arrays (float) or Fraction arrays (exact mode).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from gvcam.cameras import (Pinhole, Pushbroom, TwistedCubic, TwoSlit, Type4,
                           _Camera, _secant, _slit_matrix)
from gvcam.catadioptric import conic_chord_points
from gvcam.errors import DegenerateInput, FocalPoint
from gvcam.multiimage import Transversal
from gvcam.numeric import (FOCAL_EPS, FORM_EPS, as_float, binary_eval,
                           negligible, norm, projective_distance, realify,
                           unitize, vec)
from gvcam.plucker import (incidence, line_from_planes, line_from_points,
                           line_residual, plucker_quadric,
                           point_line_residual, primal_matrix)


def rand_point(rng, dim=4):
    """Random projective point with comfortably nonzero norm."""
    while True:
        x = rng.standard_normal(dim)
        if norm(x) > 0.3:
            return x


#: Foci (1 : 0 : 0 : +-3) of ``catadioptric.reference_ellipsoid``.
ELLIPSOID_FOCI = (vec([1.0, 0, 0, 3]), vec([1.0, 0, 0, -3]))


def ellipsoid_point(theta, phi):
    """Point of ``catadioptric.reference_ellipsoid`` at spherical
    parameters."""
    return vec([1.0, 4 * math.sin(theta) * math.cos(phi),
                4 * math.sin(theta) * math.sin(phi), 5 * math.cos(theta)])


def rand_line(rng):
    return line_from_points(rand_point(rng), rand_point(rng))


def rand_skew_pair(rng):
    """Two lines that are genuinely skew (scaled incidence bounded away
    from zero), suitable for a two-slit camera."""
    while True:
        p, q = rand_line(rng), rand_line(rng)
        if abs(incidence(p, q)) > 0.05 * norm(p) * norm(q):
            return p, q


def lines_through(rng, n, x=None):
    """n random lines through a common point; returns (lines, point)."""
    x = rand_point(rng) if x is None else x
    return [line_from_points(x, rand_point(rng)) for _ in range(n)], x


def rand_rational_point(rng, dim=4):
    """Random point with small Fraction coordinates (exact mode)."""
    while True:
        nums = rng.integers(-9, 10, dim)
        dens = rng.integers(1, 5, dim)
        if any(int(v) for v in nums):
            return vec([Fraction(int(a), int(b))
                        for a, b in zip(nums, dens)])


def rational_lines_through(rng, n, x=None):
    x = rand_rational_point(rng) if x is None else x
    return [line_from_points(x, rand_rational_point(rng))
            for _ in range(n)], x


def assert_proj_close(a, b, tol=1e-9, msg=""):
    d = projective_distance(np.asarray(a, dtype=complex),
                            np.asarray(b, dtype=complex))
    assert d <= tol, "%sprojective distance %.3e > %.1e" % (
        msg and msg + ": ", d, tol)


# ---------------------------------------------------------------------------
# Random camera rigs with pairwise disjoint focal loci.

def rand_pinhole(rng):
    return Pinhole(rand_point(rng))


def rand_twoslit(rng):
    p, q = rand_skew_pair(rng)
    return TwoSlit(p, q)


def rand_pushbroom(rng):
    while True:
        p = rand_line(rng)
        if norm(p[:3]) > 0.1 * norm(p):     # slit not at infinity
            return Pushbroom(p)


def rand_twisted_cubic(rng):
    while True:
        H = rng.standard_normal((4, 4))
        if abs(np.linalg.det(H)) > 1e-2:
            return TwistedCubic(H)


_CAMERA_FACTORIES = (rand_pinhole, rand_twoslit, rand_pushbroom,
                     rand_twisted_cubic)


def rand_mixed_rig(rng, size, tries=40):
    """A CameraRig of `size` cameras of at least two kinds whose focal
    loci are pairwise disjoint (no construction-time focal warnings)."""
    import warnings

    from gvcam.multiimage import CameraRig, FocalOverlapWarning
    for _ in range(tries):
        picks = [int(k) for k in rng.integers(0, len(_CAMERA_FACTORIES),
                                              size)]
        if len(set(picks)) < min(2, size):
            continue
        cams = [_CAMERA_FACTORIES[k](rng) for k in picks]
        with warnings.catch_warnings():
            warnings.simplefilter("error", FocalOverlapWarning)
            try:
                rig = CameraRig(cams)
            except FocalOverlapWarning:
                continue
        return rig
    raise RuntimeError("could not build a focal-disjoint rig")


def forward_tuple(rng, rig, tries=40):
    """(x, projected lines) for a random point off every focal locus."""
    from gvcam.errors import FocalPoint
    for _ in range(tries):
        x = rand_point(rng)
        try:
            lines = [cam.project(x) for cam in rig.cameras]
        except FocalPoint:
            continue
        if all(norm(p) > 1e-6 for p in lines):
            return x, lines
    raise RuntimeError("could not sample a point off the focal loci")


@pytest.fixture
def rng():
    """Default per-test RNG; tests needing special seeds make their own."""
    return np.random.default_rng(0xC0FFEE)


# --------------------------------------------------------------------------
# the five-baseline pair of degree-two congruences (regression fixture)

def _gen_values_first(p):
    p01, p02, p03, p12, p13, p23 = p
    return [
        p12 - p13,
        p01 * p01 + p02 * p02 - p03 * p03,
        p01 * p13 + p02 * p23 + p03 * p23,
    ]


def _gen_values_second(p):
    p01, p02, p03, p12, p13, p23 = p
    return [
        p02 - p12,
        p03 * p03 - p13 * p13 + p23 * p23,
        p01 * p03 + p01 * p13 - p12 * p23,
    ]


@dataclass(frozen=True)
class DegreeTwoCongruence(_Camera):
    """A (1,2) congruence given by its generator polynomials, with an
    optional geometric model (a focal line plus a focal conic) that can
    produce the member through a generic point."""

    name: str
    line_points: tuple | None
    conic_matrix: np.ndarray | None
    conic_plane: np.ndarray | None
    excluded: np.ndarray | None
    _gens: object = None

    kind = "degree_two"
    bidegree = (1, 2)

    def generator_values(self, p):
        vals = list(self._gens(vec(p)))
        vals.append(plucker_quadric(vec(p)))
        return vec(vals)

    def _residuals(self, P):
        return np.array([generator_residual(self, q) for q in P])

    def project(self, x):
        if self.line_points is None:
            raise DegenerateInput("no geometric model attached")
        x = as_float(vec(x))
        a1, a2 = (as_float(vec(v)) for v in self.line_points)
        L = line_from_points(a1, a2)
        if point_line_residual(x, L) < 1e-12:
            raise FocalPoint("point on the focal line")
        PL = primal_matrix(L)
        pi = PL @ x                       # plane through x and L
        ell = line_from_planes(pi, self.conic_plane)  # chord carrier
        best = None
        for w in conic_chord_points(self.conic_matrix, ell):
            if np.iscomplexobj(w):
                continue
            if projective_distance(w, self.excluded) < 1e-8:
                continue
            cand = line_from_points(x, w)
            if best is None or (self.congruence_residual(cand)
                                < self.congruence_residual(best)):
                best = cand
        if best is None:
            raise FocalPoint("no real member through this point")
        return best

    def focal_residual(self, x) -> float:
        if self.line_points is None:
            raise DegenerateInput("no geometric model attached")
        x = as_float(vec(x))
        a1, a2 = (as_float(vec(v)) for v in self.line_points)
        L = line_from_points(a1, a2)
        on_line = point_line_residual(x, L)
        xu = unitize(x)
        Q = as_float(self.conic_matrix)
        on_conic = max(abs(float(xu @ Q @ xu)),
                       abs(float(np.dot(as_float(self.conic_plane), xu)))
                       / norm(self.conic_plane))
        return min(on_line, on_conic)

    def payload(self):
        return {"type": "degree_two", "name": self.name}


@dataclass(frozen=True)
class FiveBaselineFixture:
    """Two (1,2) congruences sharing exactly five lines: one rational
    baseline plus four cut out by the quartic 5a^4 - 2a^2 + 1 = 0."""

    cam1: DegreeTwoCongruence
    cam2: DegreeTwoCongruence
    rational_baseline: np.ndarray
    quartic: tuple = (5.0, 0.0, -2.0, 0.0, 1.0)
    epipolar_sample_line: np.ndarray = None

    def quartic_roots(self):
        return np.roots(np.asarray(self.quartic))

    def family_member(self, a):
        """Baseline with parameter a on the quartic curve of solutions."""
        return np.array([(5 * a * a - 1) / 2, a, -(5 * a ** 3 + a) / 2,
                         a, a, 1.0 + 0.0 * a])

    def baselines(self):
        """All five common lines (the rational one first)."""
        out = [Transversal(line=vec(self.rational_baseline),
                           parameter=(None, None), is_real=True)]
        for a in self.quartic_roots():
            line, real = realify(self.family_member(complex(a)))
            out.append(Transversal(line=vec(line), parameter=(complex(a), 1.0),
                                   is_real=real))
        return out

    def real_count(self) -> int:
        return sum(1 for t in self.baselines() if t.is_real)


def five_baseline_fixture() -> FiveBaselineFixture:
    """The worked pair of degree-two congruences with five baselines.

    The second congruence carries its geometric model: focal line through
    (1,1,0,0) and (0,0,0,1), focal conic x0^2 - x1^2 + x2^2 = 0 in the
    plane x3 = 0, meeting the line at the excluded point (1,1,0,0).
    """
    cam1 = DegreeTwoCongruence(
        name="first", line_points=None, conic_matrix=None, conic_plane=None,
        excluded=None, _gens=_gen_values_first)
    cam2 = DegreeTwoCongruence(
        name="second",
        line_points=(vec([1.0, 1, 0, 0]), vec([0.0, 0, 0, 1])),
        conic_matrix=vec(np.diag([1.0, -1.0, 1.0, 0.0])),
        conic_plane=vec([0.0, 0, 0, 1]),
        excluded=vec([1.0, 1, 0, 0]),
        _gens=_gen_values_second)
    return FiveBaselineFixture(
        cam1=cam1, cam2=cam2,
        rational_baseline=vec([0.0, 1, 1, 1, 1, 0]),
        epipolar_sample_line=vec([3.0, 4, 5, -3, -3, 1]),
    )


# --------------------------------------------------------------------------
# published generators of the reference Type3 / Type4 congruences

def _poly_vals_type3_reference(p):
    p01, p02, p03, p12, p13, p23 = p
    return [
        p01,
        p03 * p12 - p02 * p13,
        p02 * p03 ** 2 - p12 ** 2 * p13 - p02 * p03 * p23 + p12 * p13 * p23,
        p03 ** 3 - p12 * p13 ** 2 - p03 ** 2 * p23 + p13 ** 2 * p23,
        p02 ** 2 * p03 - p12 ** 3 - p02 ** 2 * p23 + p12 ** 2 * p23,
    ]


def _poly_vals_type4_reference(p):
    p01, p02, p03, p12, p13, p23 = p
    return [
        p01,
        p03 * p12 - p02 * p13,
        p02 * p03 ** 2 - p12 ** 2 * p13,
        p03 ** 3 - p12 * p13 ** 2,
        p02 ** 2 * p03 - p12 ** 3,
    ]


# --------------------------------------------------------------------------
# one binary form at a time, through numpy.roots: the stacked
# numeric.binary_roots must equal it bit for bit

def reference_binary_roots(coeffs):
    """Projective roots of one binary form as a list of (s, t) pairs."""
    c = as_float(vec(coeffs)).astype(complex)
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        raise DegenerateInput("zero binary form has no root set")
    c = c / scale
    lead = 0
    while lead < len(c) - 1 and abs(c[lead]) <= FORM_EPS:
        lead += 1
    roots = [(1.0 + 0j, 0j)] * lead
    tail = c[lead:]
    if len(tail) > 1:
        for r in np.roots(tail):
            roots.append((complex(r), 1.0 + 0j))
    return roots


# --------------------------------------------------------------------------
# scalar references of the camera kinds, one point or line at a time in
# Python's scalar arithmetic: the stacked code must equal them bit for bit

def _reject_focal(v, message, scale):
    if negligible(v, scale, FOCAL_EPS):
        raise FocalPoint(message)


def _join(x, y, message):
    try:
        return line_from_points(x, y)
    except DegenerateInput:
        raise FocalPoint(message) from None


def reference_curve_point(cam, x):
    """The Type3 curve point, or the Type4 target point, at (x0 : x1)."""
    g, h = (binary_eval(c, x[0], x[1]) for c in (cam.g, cam.h))
    if isinstance(cam, Type4):
        return vec([0, 0, g, h])
    fv = binary_eval(cam.f, x[0], x[1])
    return vec([x[0] * fv, x[1] * fv, g, h])


def reference_project(cam, x):
    """The line of one point (a 1-d array), or FocalPoint."""
    if isinstance(cam, Pinhole):
        return _join(cam.center, x, "world point coincides with the center")
    if isinstance(cam, TwoSlit):
        M = _slit_matrix(x, *map(primal_matrix, cam.slits))
        r = vec([M[2][3], -M[1][3], M[1][2], M[0][3], -M[0][2], M[0][1]])
        _reject_focal(r, "world point lies on a slit", lambda: norm(cam.slit1)
                      * norm(cam.slit2) * norm(x) ** 2)
        return r
    if isinstance(cam, TwistedCubic):
        xn = x if cam.homography is None else vec(
            (cam._inverse @ as_float(x)).tolist())
        ell = vec(_secant(*xn))
        _reject_focal(ell, "world point lies on the twisted cubic",
                      lambda: norm(xn) ** 4)
        if cam.homography is None:
            return ell
        return vec((cam._line_map @ as_float(ell)).tolist())
    y, type4 = reference_curve_point(cam, x), isinstance(cam, Type4)
    data = (cam.g, cam.h) if type4 else (cam.f, cam.g, cam.h)
    _reject_focal(y, "world point lies on the base line",
                  lambda: norm(x) ** cam.beta * max(map(norm, data)))
    return _join(x, y, "world point maps into the base line" if type4
                 else "world point lies on the curve")


def pencil_residual(cam, p) -> float:
    """The residual of one line in a Type3/Type4 congruence."""
    pn = unitize(as_float(vec(p)))
    c1 = np.array([pn[1], pn[3]])   # (p02, p12): meet with x2 = 0
    c2 = np.array([pn[2], pn[4]])   # (p03, p13): meet with x3 = 0
    x01 = c1 if norm(c1) >= norm(c2) else c2
    if norm(x01) <= 1e-14:
        return max(abs(pn[0]), line_residual(pn))
    w = reference_curve_point(cam, vec([x01[0], x01[1], 0.0, 0.0]))
    vals = [abs(pn[0]), abs(pn[1] * pn[4] - pn[2] * pn[3]),
            line_residual(pn)]
    if norm(w) > 1e-14:
        vals.append(point_line_residual(w, pn))
    return max(vals)


def generator_residual(cam, q) -> float:
    """Largest generator at one line, unitized (panoramic or any kind)."""
    p = unitize(as_float(q))
    if cam.kind == "panoramic_nc":
        values = [p[3], p[2] ** 2 - p[4] ** 2 - p[5] ** 2, plucker_quadric(p)]
    elif cam.kind == "panoramic_stereo":
        values = [p[2], p[3] ** 2 - p[1] ** 2 - p[0] ** 2, plucker_quadric(p)]
    else:
        values = cam.generator_values(p)
    return float(np.max(np.abs(vec(values))))
