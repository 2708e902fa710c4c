"""Shared helpers for the test suite.

All randomness is seeded per test so runs are reproducible; helpers
return plain numpy arrays (float) or Fraction arrays (exact mode).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from gvcam.cameras import Pinhole, Pushbroom, TwistedCubic, TwoSlit
from gvcam.numeric import norm, projective_distance, vec
from gvcam.plucker import incidence, line_from_points


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
