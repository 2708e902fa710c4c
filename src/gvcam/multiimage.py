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
from collections import namedtuple
from math import comb

import numpy as np

from .concurrency import _svd_chunks, _tuple_stack, find_common_point
from .errors import DegenerateConfiguration, DegenerateInput, InvalidN
from .numeric import (DEFAULT_TOL, as_float, binary_roots,
                      projective_distance, realify, unitize, vec)
from .plucker import (incidence, incidence_residual, join_plane,
                      line_from_planes, line_from_points, line_residual,
                      point_line_residual, points_on_line, primal_matrix)
from . import numeric
from .cameras import (Pinhole, TwoSlit, congruence_residual,
                      line_curve_residual, point_curve_residual)

__all__ = [
    "CameraRig", "FocalOverlapWarning", "Transversal", "TriangulationResult",
    "correspond", "triangulate", "epipolar_residual", "epipolar_degree",
    "baseline_count", "common_transversals", "baselines_linear",
    "linear_generator_counts", "LinearGeneratorCounts",
]

#: Size below which the transversals' quadratic vanishes; absolute, as its
#: coefficients are products of unitized lines.
TRANSVERSAL_EPS = 1e-12
#: Projective distance up to which two transversals are one double root;
#: relative, as the distance is scale-free; a double root splits by about
#: the square root of the float rounding, 1.5e-8.
DOUBLE_ROOT_EPS = 1e-7


class FocalOverlapWarning(UserWarning):
    """Advisory: two cameras in a rig may share focal points, so the
    correspondence theory's disjointness hypothesis can fail."""


def _pairwise_focal_warnings(a, b, ia, ib, tol):
    out = []
    tag = "cameras %d/%d" % (ia, ib)
    crv = b.focal_curve
    for x in a.focal_points:
        for y in b.focal_points:
            if projective_distance(x, y) <= tol:
                out.append("%s: coincident centers" % tag)
        for ln in b.focal_lines:
            if point_line_residual(x, ln) <= tol:
                out.append("%s: center lies on a focal line" % tag)
        if crv is not None and point_curve_residual(x, crv) <= tol:
            out.append("%s: center lies on a focal curve" % tag)
    for ln in a.focal_lines:
        for ln2 in b.focal_lines:
            if incidence_residual(ln, ln2) <= tol:
                out.append("%s: focal lines meet" % tag)
        if crv is not None and line_curve_residual(ln, crv) <= tol:
            out.append("%s: focal line meets a focal curve" % tag)
    return out


class CameraRig:
    """Ordered collection of cameras.

    Disjointness of the focal loci (the hypothesis under which the joint
    image determines the world point) is checked pairwise where we know
    the loci; violations are advisory warnings, not errors, because
    overlapping-focus rigs are still meaningful objects.
    """

    def __init__(self, cameras, tol: float = DEFAULT_TOL, warn: bool = True):
        self.cameras = cams = tuple(cameras)
        if not cams:
            raise InvalidN("a rig needs at least one camera")
        notes = []
        for i in range(len(cams)):
            for j in range(i + 1, len(cams)):
                notes.extend(
                    _pairwise_focal_warnings(cams[i], cams[j], i, j, tol))
                notes.extend(
                    _pairwise_focal_warnings(cams[j], cams[i], j, i, tol))
        self.focal_warnings = tuple(dict.fromkeys(notes))
        if warn:
            for msg in self.focal_warnings:
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

    ``lines`` may also be an (N, n, 6) stack of N tuples; the result is
    then ``(points, residuals)``: a list of N points or Nones and the
    (N, n) congruence residuals, from one ``congruence_residual`` call per
    camera and one ``find_common_point`` call on the tuples that pass.
    One tuple is a stack of one.
    """
    cams = rig.cameras if isinstance(rig, CameraRig) else tuple(rig)
    L, single = _tuple_stack(lines)
    n = L.shape[1]
    if n < 2:
        raise InvalidN("correspondence needs at least two image lines")
    if n != len(cams):
        raise DegenerateInput(
            "got %d lines for %d cameras" % (n, len(cams)))
    residuals = np.stack([congruence_residual(cam, L[:, i])
                          for i, cam in enumerate(cams)], axis=1)
    passed = ~np.any(residuals > tol, axis=1)
    points = [None] * len(L)
    for k, x in zip(np.flatnonzero(passed).tolist(),
                    find_common_point(L[passed], tol=tol)):
        points[k] = x
    return points[0] if single else (points, residuals)


TriangulationResult = namedtuple("TriangulationResult", "point residual")


def triangulate(rig, lines, tol: float = DEFAULT_TOL) -> TriangulationResult:
    """Least-squares world point for a tuple of image lines.

    Minimizes sum_i ||P_i x||^2 over unit x via the smallest right singular
    vector of the stacked incidence system; the residual is the fourth
    singular value.  Works on noisy tuples; AmbiguousPencil when even the
    least-squares point is not unique (all lines nearly equal).

    ``lines`` may also be an (N, n, 6) stack of N tuples; the result then
    holds an (N, 4) array of points and N residuals, from one batched SVD
    call.  A tuple is a stack of one, and Fractions are scaled by
    :func:`numeric._scaled_rows`, then rounded.
    """
    del rig  # cameras are not needed for the least-squares point
    L, single = _tuple_stack(lines)
    L = as_float(numeric._scaled_rows(L))
    n = L.shape[1]
    if n < 2:
        raise InvalidN("triangulation needs at least two lines")
    parts = [(vt[:, 3], s[:, 3]) for _, s, vt in _svd_chunks(
        L, tol, "stacked system has a 2-dimensional near-nullspace; point "
        "not unique")]
    point, residual = (np.concatenate(v) for v in zip(*parts))
    if single:
        return TriangulationResult(point=point[0], residual=float(residual[0]))
    return TriangulationResult(point=point, residual=residual)


def epipolar_residual(cam2, p, q) -> float:
    """Membership residual of q in the epipolar set of p for camera 2:
    q must lie in camera 2's congruence and meet p."""
    qu = unitize(as_float(vec(q)))
    return max(congruence_residual(cam2, qu), float(incidence_residual(p, q)))


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

#: One common transversal: its coordinates (complex when is_real is
#: False), the (s:t) parameter on the third input line, reality flag, and
#: root multiplicity.
Transversal = namedtuple("Transversal", "line parameter is_real multiplicity",
                         defaults=(1,))


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
            if incidence_residual(ls[i], ls[j]) <= tol:
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
    if scale <= TRANSVERSAL_EPS:
        raise DegenerateConfiguration(
            "every transversal of the first three lines meets the fourth")
    roots = binary_roots(coeffs / scale)
    out = []
    for s, t in zip(roots[0].tolist(), roots[1].tolist()):
        line, real = realify(transversal_at(s, t))
        out.append(Transversal(line=vec(line), parameter=(s, t),
                               is_real=real))
    if len(out) == 2:
        d = projective_distance(np.asarray(out[0].line, dtype=complex),
                                np.asarray(out[1].line, dtype=complex))
        if d < DOUBLE_ROOT_EPS:
            out = [out[0]._replace(multiplicity=2)]
    return out


def baselines_linear(cam1, cam2, tol: float = DEFAULT_TOL):
    """Common lines of two cameras from the linear part of the catalog
    (pinhole, two-slit, pushbroom), in closed form from their centers and
    slits, which are their focal points and lines."""
    for cam in (cam1, cam2):
        if not isinstance(cam, (Pinhole, TwoSlit)):
            raise DegenerateInput(
                "closed-form baselines cover pinhole/two-slit/pushbroom "
                "cameras only, got %r" % cam.kind)
    centers = cam1.focal_points + cam2.focal_points
    slits = cam1.focal_lines + cam2.focal_lines
    if len(centers) == 2:
        try:
            line = line_from_points(*centers)
        except DegenerateInput:
            raise DegenerateConfiguration("coincident centers") from None
    elif centers:
        try:
            line = line_from_planes(*(join_plane(s, *centers) for s in slits))
        except DegenerateInput:
            raise DegenerateConfiguration(
                "pinhole center lies on a slit") from None
    else:
        return common_transversals(*slits, tol=tol)
    return [Transversal(line=line, parameter=(None, None), is_real=True)]


LinearGeneratorCounts = namedtuple("LinearGeneratorCounts",
                                   "linear quadratic cubic")


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
