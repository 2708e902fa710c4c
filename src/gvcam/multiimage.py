"""Multi-camera correspondence: joint-image membership, triangulation,
epipolar residuals, baselines, and generator-counting formulas.

A tuple of image lines (one per camera) is a correspondence exactly when
every line belongs to its camera's congruence and the tuple is concurrent.
Baselines of a camera pair are the lines lying in both congruences; for a
(1, beta1) / (1, beta2) pair there are 1 + beta1*beta2 of them, counted
with multiplicity over the complex numbers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb

import numpy as np

from .concurrency import find_common_point
from .errors import (AmbiguousPencil, DegenerateConfiguration,
                     DegenerateInput, FocalPoint, InvalidN)
from .numeric import (DEFAULT_TOL, as_float, binary_roots, norm,
                      projective_distance, realify, unitize, unitize_rows,
                      vec)
from .plucker import (_primal_stack, incidence, join_plane, line_from_planes,
                      line_from_points, line_residual, point_line_residual,
                      points_on_line, primal_matrix)
from . import cameras as _cameras, numeric
from .cameras import (Pinhole, TwoSlit, _residuals, congruence_residual,
                      line_curve_residual)
from .catadioptric import conic_chord_points

__all__ = [
    "CameraRig", "FocalOverlapWarning", "Transversal", "TriangulationResult",
    "correspond", "triangulate", "epipolar_residual", "epipolar_degree",
    "baseline_count", "common_transversals", "baselines_linear",
    "linear_generator_counts", "LinearGeneratorCounts",
    "DegreeTwoCongruence", "five_baseline_fixture", "FiveBaselineFixture",
]


class FocalOverlapWarning(UserWarning):
    """Advisory: two cameras in a rig may share focal points, so the
    correspondence theory's disjointness hypothesis can fail."""


def _focal_lines(cam):
    """Lines contained in the camera's focal locus (best effort)."""
    if isinstance(cam, TwoSlit):
        return [cam.slit1, cam.slit2]
    if cam.kind in ("type3", "type4"):
        return [cam.base_line]
    return []


def _focal_points(cam):
    if isinstance(cam, Pinhole):
        return [cam.center]
    return []


def _focal_curve(cam):
    if cam.kind == "twisted_cubic":
        return cam.curve()
    if cam.kind == "type3":
        return cam.curve()
    return None


def _pairwise_focal_warnings(a, b, ia, ib, tol):
    out = []
    tag = "cameras %d/%d" % (ia, ib)
    for x in _focal_points(a):
        for y in _focal_points(b):
            if projective_distance(x, y) <= tol:
                out.append("%s: coincident centers" % tag)
        for ln in _focal_lines(b):
            if point_line_residual(x, ln) <= tol:
                out.append("%s: center lies on a focal line" % tag)
        crv = _focal_curve(b)
        if crv is not None and _cameras.point_curve_residual(x, crv) <= tol:
            out.append("%s: center lies on a focal curve" % tag)
    for ln in _focal_lines(a):
        for ln2 in _focal_lines(b):
            if abs(incidence(unitize(as_float(ln)),
                             unitize(as_float(ln2)))) <= tol:
                out.append("%s: focal lines meet" % tag)
        crv = _focal_curve(b)
        if crv is not None and line_curve_residual(ln, crv) <= tol:
            out.append("%s: focal line meets a focal curve" % tag)
    return out


@dataclass(frozen=True)
class CameraRig:
    """Ordered, immutable collection of cameras.

    Disjointness of the focal loci (the hypothesis under which the joint
    image determines the world point) is checked pairwise where we know
    the loci; violations are advisory warnings, not errors, because
    overlapping-focus rigs are still meaningful objects.
    """

    cameras: tuple
    focal_warnings: tuple = ()

    def __init__(self, cameras, tol: float = DEFAULT_TOL, warn: bool = True):
        cams = tuple(cameras)
        if not cams:
            raise InvalidN("a rig needs at least one camera")
        notes = []
        for i in range(len(cams)):
            for j in range(i + 1, len(cams)):
                notes.extend(
                    _pairwise_focal_warnings(cams[i], cams[j], i, j, tol))
                notes.extend(
                    _pairwise_focal_warnings(cams[j], cams[i], j, i, tol))
        notes = tuple(dict.fromkeys(notes))
        object.__setattr__(self, "cameras", cams)
        object.__setattr__(self, "focal_warnings", notes)
        if warn:
            for msg in notes:
                warnings.warn(msg, FocalOverlapWarning, stacklevel=2)

    def __len__(self):
        return len(self.cameras)

    def project(self, x):
        return [cam.project(x) for cam in self.cameras]


def correspond(rig, lines, tol: float = DEFAULT_TOL):
    """Accept or reject a tuple of image lines.

    Returns the common world point when every line lies in its camera's
    congruence (residual <= tol) and the lines are concurrent; returns
    None otherwise.  AmbiguousPencil propagates when the common point is
    not unique.

    ``lines`` may also be an (N, n, 6) float64 stack of N tuples; the
    result is then ``(points, residuals)``: a list of N points or Nones
    and the (N, n) congruence residuals, from one ``congruence_residual``
    call per camera and one ``find_common_point`` call on the tuples that
    pass.
    """
    cams = rig.cameras if isinstance(rig, CameraRig) else tuple(rig)
    stacked = isinstance(lines, np.ndarray) and lines.ndim == 3
    n = lines.shape[1] if stacked else len(lines)
    if n < 2:
        raise InvalidN("correspondence needs at least two image lines")
    if n != len(cams):
        raise DegenerateInput(
            "got %d lines for %d cameras" % (n, len(cams)))
    if not stacked:
        lines = [vec(p) for p in lines]
        for cam, p in zip(cams, lines):
            if congruence_residual(cam, p) > tol:
                return None
        return find_common_point(lines, tol=tol)
    residuals = np.stack([congruence_residual(cam, lines[:, i])
                          for i, cam in enumerate(cams)], axis=1)
    passed = ~np.any(residuals > tol, axis=1)
    points = [None] * len(lines)
    for k, x in zip(np.flatnonzero(passed).tolist(),
                    find_common_point(lines[passed], tol=tol)):
        points[k] = x
    return points, residuals


@dataclass(frozen=True)
class TriangulationResult:
    point: np.ndarray
    residual: float


def triangulate(rig, lines, tol: float = DEFAULT_TOL) -> TriangulationResult:
    """Least-squares world point for a tuple of image lines.

    Minimizes sum_i ||P_i x||^2 over unit x via the smallest right singular
    vector of the stacked incidence system; the residual is the fourth
    singular value.  Works on noisy tuples; AmbiguousPencil when even the
    least-squares point is not unique (all lines nearly equal).

    ``lines`` may also be an (N, n, 6) float stack of N tuples; the result
    then holds an (N, 4) array of points and N residuals, from one batched
    SVD call.  A tuple is a stack of one.
    """
    del rig  # cameras are not needed for the least-squares point
    stacked = isinstance(lines, np.ndarray) and lines.ndim == 3
    L = lines if stacked else np.array(
        [as_float(vec(p)) for p in lines])[None]
    n = L.shape[1]
    if n < 2:
        raise InvalidN("triangulation needs at least two lines")
    step = max(1, numeric.SVD_BUDGET // (16 * n * n))     # U of each system
    if len(L) > step:
        parts = [triangulate(None, L[k:k + step], tol)
                 for k in range(0, len(L), step)]
        return TriangulationResult(
            point=np.concatenate([r.point for r in parts]),
            residual=np.concatenate([r.residual for r in parts]))
    rows = _primal_stack(unitize_rows(L).reshape(-1, 6))
    _, s, vt = np.linalg.svd(rows.reshape(len(L), -1, 4))
    if np.any(s[:, 2] <= tol * s[:, 0]):
        raise AmbiguousPencil("stacked system has a 2-dimensional "
                              "near-nullspace; point not unique")
    if stacked:
        return TriangulationResult(point=vt[:, 3], residual=s[:, 3])
    return TriangulationResult(point=vt[0, 3], residual=float(s[0, 3]))


def epipolar_residual(cam2, p, q) -> float:
    """Membership residual of q in the epipolar set of p for camera 2:
    q must lie in camera 2's congruence and meet p."""
    pu = unitize(as_float(vec(p)))
    qu = unitize(as_float(vec(q)))
    return max(congruence_residual(cam2, qu), abs(float(incidence(pu, qu))))


def epipolar_degree(beta2: int) -> int:
    """Degree of the epipolar curve cut on camera 2 by a line of camera 1."""
    if beta2 < 0:
        raise InvalidN("beta must be >= 0")
    return 1 + beta2


def baseline_count(beta1: int, beta2: int) -> int:
    """Number of common lines of a (1,beta1)/(1,beta2) camera pair with
    disjoint focal loci, counted with multiplicity over C."""
    if beta1 < 0 or beta2 < 0:
        raise InvalidN("beta must be >= 0")
    return 1 + beta1 * beta2


# --------------------------------------------------------------------------
# transversals and linear baselines

@dataclass(frozen=True)
class Transversal:
    """One common transversal: its coordinates (complex when is_real is
    False), the (s:t) parameter on the third input line, reality flag, and
    root multiplicity."""

    line: np.ndarray
    parameter: tuple
    is_real: bool
    multiplicity: int = 1


def common_transversals(l1, l2, l3, l4, tol: float = DEFAULT_TOL):
    """The 0-2 lines meeting four given lines.

    Points of l3 are parameterized as z(s,t); the unique transversal of
    l1, l2 through z is the meet of the planes z v l1 and z v l2; its
    incidence with l4 is a binary quadratic in (s,t) whose roots give the
    answers.  Complex roots are kept, flagged is_real=False.
    """
    ls = [unitize(as_float(vec(p))) for p in (l1, l2, l3, l4)]
    for p in ls:
        if line_residual(p) > tol:
            raise DegenerateInput("input is not a line (quadric residual)")
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(incidence(ls[i], ls[j])) <= tol:
                raise DegenerateConfiguration(
                    "lines %d and %d are not skew" % (i + 1, j + 1))
    P1, P2 = primal_matrix(ls[0]), primal_matrix(ls[1])
    A, B = points_on_line(ls[2])

    def transversal_at(s, t):
        z = s * A.astype(complex) + t * B.astype(complex)
        return line_from_planes(P1 @ z, P2 @ z)

    f = lambda s, t: complex(incidence(transversal_at(s, t), ls[3]))
    ca = f(1.0, 0.0)
    cc = f(0.0, 1.0)
    cb = f(1.0, 1.0) - ca - cc
    coeffs = np.array([ca, cb, cc])
    scale = float(np.max(np.abs(coeffs)))
    if scale <= 1e-12:
        raise DegenerateConfiguration(
            "every transversal of the first three lines meets the fourth")
    roots = binary_roots(coeffs / scale)
    out = []
    for s, t in roots:
        line, real = realify(transversal_at(s, t))
        out.append(Transversal(line=vec(line), parameter=(s, t),
                               is_real=real))
    if len(out) == 2:
        d = projective_distance(np.asarray(out[0].line, dtype=complex),
                                np.asarray(out[1].line, dtype=complex))
        if d < 1e-7:
            out = [Transversal(line=out[0].line, parameter=out[0].parameter,
                               is_real=out[0].is_real, multiplicity=2)]
    return out


def baselines_linear(cam1, cam2, tol: float = DEFAULT_TOL):
    """Common lines of two cameras from the linear part of the catalog
    (pinhole, two-slit, pushbroom), in closed form."""
    kinds = []
    for cam in (cam1, cam2):
        if isinstance(cam, Pinhole):
            kinds.append("pinhole")
        elif isinstance(cam, TwoSlit):
            kinds.append("slits")
        else:
            raise DegenerateInput(
                "closed-form baselines cover pinhole/two-slit/pushbroom "
                "cameras only, got %r" % cam.kind)

    if kinds == ["pinhole", "pinhole"]:
        try:
            line = line_from_points(cam1.center, cam2.center)
        except DegenerateInput:
            raise DegenerateConfiguration("coincident centers") from None
        return [Transversal(line=line, parameter=(None, None), is_real=True)]

    if "pinhole" in kinds:
        ph, sl = (cam1, cam2) if kinds[0] == "pinhole" else (cam2, cam1)
        s1, s2 = sl.slit1, sl.slit2
        try:
            line = line_from_planes(join_plane(s1, ph.center),
                                    join_plane(s2, ph.center))
        except DegenerateInput:
            raise DegenerateConfiguration(
                "pinhole center lies on a slit") from None
        return [Transversal(line=line, parameter=(None, None), is_real=True)]

    return common_transversals(cam1.slit1, cam1.slit2, cam2.slit1, cam2.slit2,
                               tol=tol)


@dataclass(frozen=True)
class LinearGeneratorCounts:
    linear: int
    quadratic: int
    cubic: int


def linear_generator_counts(n1: int, n2: int) -> LinearGeneratorCounts:
    """Minimal generator counts for the joint-image ideal of n1 pinhole and
    n2 two-slit cameras (in general position)."""
    if n1 < 0 or n2 < 0 or n1 + n2 < 1:
        raise InvalidN("need n1, n2 >= 0 with n1 + n2 >= 1")
    return LinearGeneratorCounts(
        linear=3 * n1 + 2 * n2,
        quadratic=comb(n1 + n2, 2) + n2,
        cubic=(comb(n1, 3) + 3 * comb(n1, 2) * n2
               + 6 * n1 * comb(n2, 2) + 10 * comb(n2, 3)),
    )


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
class DegreeTwoCongruence:
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
        from .plucker import plucker_quadric
        vals.append(plucker_quadric(vec(p)))
        return vec(vals)

    def congruence_residual(self, p):
        return _residuals(p, lambda q: float(np.max(np.abs(as_float(
            self.generator_values(unitize(as_float(q))))))))

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
