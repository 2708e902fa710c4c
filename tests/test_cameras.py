"""The order-one camera catalog: projections, congruence membership,
focal behavior, and the degree-two panoramic congruences."""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gvcam.cameras import (TWISTED_CUBIC_CURVE, DegenerateCubic, FocalPoint,
                           InvalidSlit, PanoramicNC, PanoramicStereo, Pinhole,
                           Pushbroom, RationalCurve, TwistedCubic, TwoSlit,
                           Type3, Type4, camera_from_payload,
                           congruence_residual, line_curve_residual,
                           point_curve_residual, project,
                           pushbroom_infinity_slit, reference_type3,
                           reference_type4, secant_quadrics,
                           sum_of_two_cubes)
from gvcam.errors import (DegenerateInput, FocalConfiguration,
                          UnsupportedOrder)
from gvcam.numeric import (DEFAULT_TOL, _scaled_rows, compound2, is_exact,
                           norm, unitize, vec)
from gvcam.plucker import (incidence, line_from_points, plucker_quadric,
                           point_line_residual, points_on_line, wedge)
from conftest import (assert_proj_close, rand_line, rand_point,
                      rand_pushbroom, rand_rational_point,
                      generator_residual, pencil_residual,
                      rand_twisted_cubic, rand_twoslit, reference_project)

E = np.eye(4)


def catalog(rng):
    return [Pinhole(rand_point(rng)),
            rand_twoslit(rng),
            rand_pushbroom(rng),
            TwistedCubic(),
            rand_twisted_cubic(rng),
            reference_type3(),
            reference_type4()]


def test_containment_and_membership_all_types():
    rng = np.random.default_rng(301)
    for cam in catalog(rng):
        for _ in range(25):
            x = rand_point(rng)
            try:
                p = cam.project(x)
            except FocalPoint:
                continue
            assert point_line_residual(unitize(x), unitize(p)) <= 1e-9
            assert cam.congruence_residual(unitize(p)) <= 1e-9
            assert congruence_residual(cam, p) <= 1e-9


_CATALOG = catalog(np.random.default_rng(319))
_coords = st.floats(-10.0, 10.0, allow_nan=False)


# exact cameras, each at another scale than the float camera it equals
_RESCALED = [
    (Pinhole(vec([1000, 0, 0, 1000], exact=True)),
     Pinhole(vec([1., 0, 0, 1]))),
    (TwoSlit(vec([3, 0, 0, 0, 0, 0], exact=True),
             vec([0, 0, 0, 0, 0, 5], exact=True)),
     TwoSlit(vec([1., 0, 0, 0, 0, 0]), vec([0., 0, 0, 0, 0, 1]))),
]


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(st.lists(_coords, min_size=8, max_size=8),
       st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))
def test_congruence_residual_ignores_projective_scale(coords, lam):
    """The residual of a line is that of the line rescaled, of the line in
    Fractions at either scale, and of the line against an exact camera
    given at another scale."""
    x, y = np.array(coords[:4]), np.array(coords[4:])
    p = wedge(x, y)
    if norm(p) <= 1e-3 * norm(x) * norm(y):
        return                      # (nearly) coincident points
    exact = vec([Fraction(v) for v in p], exact=True)
    lines = (p, lam * p, exact, Fraction(lam) * exact)
    for cam, twin in [(cam, cam) for cam in _CATALOG] + _RESCALED:
        r = congruence_residual(twin, p)
        for q in lines:
            assert abs(congruence_residual(cam, q) - r) <= 1e-12 * r, cam


_STACK_CATALOG = _CATALOG + [PanoramicNC(), PanoramicStereo()]


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(st.lists(st.tuples(st.lists(_coords, min_size=8, max_size=8),
                          st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)),
                min_size=1, max_size=10))
def test_stacked_congruence_residual_equals_per_row(rows):
    """Every kind's residual of an (N, 6) stack is, bit for bit, the list
    of its residuals of the rows one at a time; the stack mixes random
    lines with lines of the congruence, at scales 1e-8 to 1e8."""
    for cam in _STACK_CATALOG:
        lines = []
        for coords, lam in rows:
            x, y = np.array(coords[:4]), np.array(coords[4:])
            if norm(wedge(x, y)) > 1e-3 * norm(x) * norm(y):
                lines.append(lam * wedge(x, y))
            try:
                lines.append(lam * cam.project(x))
            except (FocalPoint, UnsupportedOrder):
                pass
        if not lines:
            continue
        stack = np.array(lines)
        got = congruence_residual(cam, stack)
        assert got.shape == (len(lines),) and got.dtype == np.float64
        one_by_one = np.array([congruence_residual(cam, p) for p in lines])
        assert got.tobytes() == one_by_one.tobytes(), cam.kind
        assert cam.congruence_residual(stack).tobytes() == got.tobytes()


# the Type3/Type4 kinds (one with exact data) and the panoramic kinds,
# whose residuals always work in floats
_FLOAT_RESIDUAL_CATALOG = [
    reference_type3(), reference_type4(),
    Type3((1.0, 0.5), (1.0, 0.2, 0.3), (0.0, 0.7, 1.0)),
    Type4((1.0, 0.3, 0.0), (0.2, 0.0, 1.0)),
    Type3(*(vec(c, exact=True) for c in ([1, 3], [1, 0, "2/3"],
                                         [0, "5/2", 1]))),
    PanoramicNC(), PanoramicStereo()]
# lines spanned by e0, e1 and by e2, e3 (no meet with x2 = 0 or x3 = 0)
_AXIS_LINES = [np.array(p, dtype=float) for p in
               ([1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 2])]


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(st.lists(st.tuples(st.lists(_coords, min_size=8, max_size=8),
                          st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)),
                min_size=1, max_size=8))
def test_stacked_residuals_equal_scalar_reference(rows):
    """The Type3, Type4 and panoramic residuals of a stack are, bit for
    bit, the scalar code of conftest row by row (pencil_residual,
    generator_residual), for float lines and for the same lines in
    Fractions: random lines, lines meeting the base line, the camera's
    own lines and lines in no plane of the pencil."""
    for cam in _FLOAT_RESIDUAL_CATALOG:
        lines = list(_AXIS_LINES)
        for coords, lam in rows:
            x, y = np.array(coords[:4]), np.array(coords[4:])
            for z in (y, y * [0, 0, 1, 1]):
                if norm(wedge(x, z)) > 1e-3 * norm(x) * norm(z):
                    lines.append(lam * wedge(x, z))
            try:
                lines.append(lam * cam.project(x))
            except (FocalPoint, UnsupportedOrder):
                pass
        reference = (generator_residual if cam.kind.startswith("panoramic")
                     else pencil_residual)
        floats = np.array(lines)
        fractions = vec([[Fraction(v) for v in p] for p in lines])
        for stack in (floats, fractions):
            got = congruence_residual(cam, stack)
            want = np.array([reference(cam, _scaled_rows(p)) for p in stack])
            assert got.tobytes() == want.tobytes(), cam.kind


def test_exact_stack_goes_row_by_row():
    rng = np.random.default_rng(320)
    cam = Pinhole(vec([0, 0, 0, 1], exact=True))
    lines = [line_from_points(vec([0, 0, 0, 1], exact=True),
                              rand_rational_point(rng)) for _ in range(3)]
    lines.append(line_from_points(rand_rational_point(rng),
                                  rand_rational_point(rng)))
    got = congruence_residual(cam, np.array(lines))
    assert got.tolist() == [congruence_residual(cam, p) for p in lines]
    assert got[:3].tolist() == [0.0] * 3 and got[3] > 0


def test_float_lines_against_exact_camera_ignore_its_scale():
    """A camera given with exact coordinates measures float lines as the
    same camera given in floats: the scale of its centre or slits does
    not enter the residual."""
    rng = np.random.default_rng(322)
    lines = np.array([rand_line(rng) for _ in range(5)])
    pairs = [
        (Pinhole(vec([4, 0, 0, 4], exact=True)), Pinhole(vec([1., 0, 0, 1]))),
        (TwoSlit(vec([3, 0, 0, 0, 0, 0], exact=True),
                 vec([0, 0, 0, 0, 0, 5], exact=True)),
         TwoSlit(vec([1., 0, 0, 0, 0, 0]), vec([0., 0, 0, 0, 0, 1]))),
    ]
    for exact_cam, float_cam in pairs:
        got = congruence_residual(exact_cam, lines)
        want = congruence_residual(float_cam, lines)
        assert np.allclose(got, want, rtol=1e-14, atol=0)


def test_projection_lines_satisfy_quadric():
    rng = np.random.default_rng(302)
    for cam in catalog(rng):
        x = rand_point(rng)
        p = unitize(cam.project(x))
        assert abs(plucker_quadric(p)) <= 1e-12


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.lists(_coords, min_size=4, max_size=4))
def test_projection_passes_through_the_point_in_the_congruence(coords):
    """Every catalog camera maps a point to a line through it that lies in
    its congruence, or raises FocalPoint."""
    x = np.array(coords)
    assume(norm(x) >= 1e-3)
    for cam in _CATALOG:
        try:
            p = cam.project(x)
        except FocalPoint:
            continue
        assert point_line_residual(x, p) <= DEFAULT_TOL, cam.kind
        assert congruence_residual(cam, p) <= DEFAULT_TOL, cam.kind


def _focal_points(cam, s, t):
    """Points of the focal locus of a catalog camera at parameter (s, t),
    read from its focal attributes: the focal points, s a + t b on each
    focal line (a, b from points_on_line) and the focal curve's point."""
    points = list(cam.focal_points)
    points += [s * a + t * b for a, b in map(points_on_line, cam.focal_lines)]
    if cam.focal_curve is not None:
        points.append(cam.focal_curve.point(s, t))
    return points


def _assert_stack_projects_per_point(cam, stack):
    """cam.project of the stack is, bit for bit, the scalar reference of
    each row (conftest.reference_project; zeros and its message in a focal
    row), and so is the stack of one of each row; a point alone returns
    that line or raises."""
    lines, focal = cam.project(stack)
    assert lines.shape == (len(stack), 6)
    for k, x in enumerate(stack):
        one, one_focal = cam.project(stack[k:k + 1])
        try:
            want = reference_project(cam, x)
        except FocalPoint as exc:
            assert focal[k] == one_focal[0] == str(exc), cam.kind
            assert not lines[k].any() and not one.any()
            with pytest.raises(FocalPoint, match=str(exc)):
                cam.project(x)
            continue
        assert k not in focal and not one_focal, cam.kind
        for got in (lines[k], one[0], cam.project(x)):
            assert got.dtype == want.dtype, cam.kind
            if want.dtype == object:
                assert got.tolist() == want.tolist(), cam.kind
            else:
                assert got.tobytes() == want.tobytes(), cam.kind
    return focal


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(st.lists(st.tuples(st.lists(_coords, min_size=4, max_size=4),
                          st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)),
                min_size=1, max_size=8))
def test_stacked_projection_equals_per_point(rows):
    """Every kind's projection of an (N, 4) float stack equals, bit for
    bit, its scalar reference point by point; the stack mixes random
    points with points of the focal locus, at scales 1e-8 to 1e8."""
    for cam in _CATALOG:
        stack = []
        for coords, lam in rows:
            stack.append(lam * np.array(coords))
            stack += [lam * x for x in _focal_points(cam, *coords[:2])]
        focal = _assert_stack_projects_per_point(cam, np.array(stack))
        assert focal, cam.kind


# exact cameras, each of which projects Fraction points to Fraction lines
_EXACT_CATALOG = [
    Pinhole(vec([1, 2, 3, 4], exact=True)),
    TwoSlit(vec([1, 0, 0, 0, 0, 0], exact=True),
            vec([0, 0, 0, 0, 0, 1], exact=True)),
    Pushbroom(vec([1, 0, 0, -2, 0, 0], exact=True)),
    TwistedCubic(),
    TwistedCubic(vec([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]],
                     exact=True)),
    Type3(*(vec(c, exact=True) for c in ([1, 0, -1], [1, 0, 0, 0],
                                         [0, 0, 0, 1]))),
    Type4(vec([1, 0, 0, 0], exact=True), vec([0, 0, 0, 1], exact=True)),
]
# points of the exact cameras' focal loci, sampled from their focal
# attributes at the parameter (1 : 2)
_EXACT_FOCAL = [list(x) for cam in _EXACT_CATALOG
                for x in _focal_points(cam, 1, 2)]


@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=1, max_size=6))
def test_exact_stacked_projection_equals_per_point(rows):
    """A stack of Fractions is projected in one pass to the same Fraction
    lines, focal rows and messages as the scalar reference point by point,
    by every exact kind: the twisted cubic moved by an exact homography
    too, through its exact inverse."""
    stack = vec(rows + _EXACT_FOCAL, exact=True)
    for cam in _EXACT_CATALOG:
        assert _assert_stack_projects_per_point(cam, stack), cam.kind


def test_focal_attributes_projection_and_focal_residual_agree():
    """The three statements of a kind's focal locus agree: each point
    sampled from its focal attributes raises FocalPoint from ``project``,
    alone and in a stack, and has focal_residual <= 1e-10, while random
    points project and have focal_residual > 1e-8.  Exact cameras are
    sampled at nonzero integer parameters, so that their exact focal data
    gives exact points."""
    rng = np.random.default_rng(323)
    for cams, exact in ((_CATALOG, False), (_EXACT_CATALOG, True)):
        for cam in cams:
            for _ in range(50):
                if exact:
                    s, t = (int(v) for v in rng.integers(1, 6, 2)
                            * rng.choice([-1, 1], 2))
                else:
                    s, t = rng.standard_normal(2)
                points = _focal_points(cam, s, t)
                _, focal = cam.project(vec(points))
                assert sorted(focal) == list(range(len(points))), cam.kind
                for x in points:
                    with pytest.raises(FocalPoint):
                        cam.project(x)
                    assert cam.focal_residual(x) <= 1e-10, cam.kind
                y = rand_point(rng)
                cam.project(y)                  # must not raise
                assert cam.focal_residual(y) > 1e-8, cam.kind


def test_order_one_uniqueness():
    """Any second generic point on a projected line reprojects to the
    same line: the congruence has exactly one line through a point."""
    rng = np.random.default_rng(303)
    for cam in catalog(rng):
        for _ in range(10):
            x = rand_point(rng)
            try:
                p = cam.project(x)
            except FocalPoint:
                continue
            from gvcam.plucker import points_on_line
            a, b = points_on_line(p)
            t = 0.25 + 0.5 * rng.random()
            y = a * t + b * (1.0 - t)
            if norm(y) < 1e-6:
                continue
            try:
                q = cam.project(y)
            except FocalPoint:
                continue
            assert_proj_close(p, q, 1e-8)


def test_pinhole_exact_and_focal():
    center = vec([Fraction(1), Fraction(2), Fraction(-1), Fraction(3)])
    cam = Pinhole(center)
    x = vec([Fraction(2), Fraction(0), Fraction(1), Fraction(1)])
    p = cam.project(x)
    assert plucker_quadric(p) == 0
    assert incidence(p, p) == 0
    with pytest.raises(FocalPoint):
        cam.project(7 * center)


def test_twoslit_reference_projection():
    cam = TwoSlit(line_from_points(E[0], E[1]), line_from_points(E[2], E[3]))
    got = cam.project(np.array([1.0, 1.0, 1.0, 1.0]))
    assert_proj_close(got, np.array([0.0, 1, 1, 1, 1, 0]), 1e-12)


def test_twoslit_focal_and_validation():
    p, q = line_from_points(E[0], E[1]), line_from_points(E[2], E[3])
    cam = TwoSlit(p, q)
    with pytest.raises(FocalPoint):
        cam.project(np.array([1.0, -2.0, 0.0, 0.0]))      # on first slit
    with pytest.raises(FocalPoint):
        cam.project(np.array([0.0, 0.0, 3.0, 0.5]))       # on second slit
    with pytest.raises(InvalidSlit):
        TwoSlit(p, line_from_points(E[0], E[2]))          # slits meet
    with pytest.raises(InvalidSlit):
        TwoSlit(p, vec([1.0, 1, 0, 0, 0, 0]))             # not a line


@pytest.mark.parametrize("scale", [1e-200, 1e200, 10 ** 400])
def test_twoslit_slits_are_checked_at_any_scale(scale):
    """Slits e0 v e1 and e2 v e3 scaled by 1e+-200 (floats whose squares
    leave the float range) or by 10^400 (exact) make a valid camera, and
    meeting slits are rejected at the same scales."""
    exact = isinstance(scale, int)
    p, q, r = (vec(v, exact=exact) * scale for v in ((1, 0, 0, 0, 0, 0),
                                                     (0, 0, 0, 0, 0, 1),
                                                     (0, 1, 0, 0, 0, 0)))
    cam = TwoSlit(p, q)
    assert cam.congruence_residual(vec([0, 1, 1, 1, 1, 0])) == 0.0
    with pytest.raises(InvalidSlit):
        TwoSlit(p, r)                       # e0 v e1 and e0 v e2 meet


def test_twoslit_projection_meets_both_slits():
    rng = np.random.default_rng(304)
    for _ in range(25):
        cam = rand_twoslit(rng)
        x = rand_point(rng)
        ln = unitize(cam.project(x))
        assert abs(incidence(ln, unitize(cam.slit1))) <= 1e-9
        assert abs(incidence(ln, unitize(cam.slit2))) <= 1e-9


def test_pushbroom_matches_twoslit_identically():
    rng = np.random.default_rng(305)
    for _ in range(25):
        cam = rand_pushbroom(rng)
        q = pushbroom_infinity_slit(cam.slit)
        np.testing.assert_allclose(
            q, np.array([0.0, 0, 0, cam.slit[2], -cam.slit[1], cam.slit[0]]),
            atol=0)
        twin = TwoSlit(cam.slit, q)
        x = rand_point(rng)
        assert np.array_equal(cam.project(x), twin.project(x))


def test_pushbroom_rejects_slit_at_infinity():
    with pytest.raises(InvalidSlit):
        Pushbroom(vec([0.0, 0, 0, 1.0, 2.0, -1.0]))


def test_twisted_cubic_reference_value():
    cam = TwistedCubic()
    got = cam.project(np.array([1.0, 0.0, 0.0, 1.0]))
    assert_proj_close(got, np.array([0.0, 0, 1, 0, 0, 0]), 1e-12)


def test_twisted_cubic_curve_is_focal_locus():
    """Points of the carrier cubic curve kill all six coordinate forms
    (projection undefined) and exactly they have zero curve residual."""
    cam = TwistedCubic()
    rng = np.random.default_rng(306)
    for _ in range(20):
        s, t = rng.standard_normal(2)
        x = TWISTED_CUBIC_CURVE.point(s, t)
        if norm(x) < 1e-3:
            continue
        assert point_curve_residual(unitize(x), TWISTED_CUBIC_CURVE) <= 1e-10
        assert cam.focal_residual(x) <= 1e-10
        with pytest.raises(FocalPoint):
            cam.project(x)
        y = rand_point(rng)
        if point_curve_residual(unitize(y), TWISTED_CUBIC_CURVE) > 1e-6:
            assert cam.focal_residual(y) > 1e-8
            cam.project(y)              # must not raise


def test_twisted_cubic_projection_is_secant():
    """The projected line is the secant through the two cube-root points
    of the decomposition of x as a weighted sum of two cubes."""
    rng = np.random.default_rng(307)
    cam = TwistedCubic()
    for _ in range(20):
        x = rand_point(rng)
        try:
            params, weights = sum_of_two_cubes(x)
        except DegenerateCubic:
            continue
        if not np.isrealobj(params):
            continue
        p = unitize(cam.project(x))
        for (s, t) in params:
            pt = TWISTED_CUBIC_CURVE.point(s, t)
            assert point_line_residual(unitize(pt), p) <= 1e-7
        assert line_curve_residual(p, TWISTED_CUBIC_CURVE) <= 1e-7
        assert line_curve_residual(p, TWISTED_CUBIC_CURVE) <= DEFAULT_TOL


def test_sum_of_two_cubes_reconstructs():
    rng = np.random.default_rng(308)
    for _ in range(30):
        x = rand_point(rng)
        try:
            params, weights = sum_of_two_cubes(x)
        except DegenerateCubic:
            continue
        recon = np.zeros(4, dtype=complex)
        for (s, t), w in zip(params, weights):
            cube = np.array([s ** 3, s ** 2 * t, s * t ** 2, t ** 3])
            recon += w * cube
        assert norm(recon - x) <= 1e-8 * norm(x)


def test_sum_of_two_cubes_rejects_perfect_cube():
    with pytest.raises(DegenerateCubic):
        sum_of_two_cubes(np.array([1.0, 1.0, 1.0, 1.0]))   # (u + v)^3


def test_secant_system_rank_five_and_nullvector():
    rng = np.random.default_rng(309)
    cam = TwistedCubic()
    for _ in range(25):
        x = rand_point(rng)
        M = cam.system(x)
        assert M.shape == (6, 6)
        s = np.linalg.svd(M, compute_uv=False)
        assert s[4] > 1e6 * max(s[5], 1e-300)
        _, _, vt = np.linalg.svd(M)
        try:
            p = cam.project(x)
        except FocalPoint:
            continue
        assert_proj_close(vt[-1], p, 1e-9)
    # a twisted cubic moved by a homography: the system is pulled back
    moved = rand_twisted_cubic(rng)
    for _ in range(10):
        x = rand_point(rng)
        M = moved.system(x)
        s = np.linalg.svd(M, compute_uv=False)
        assert s[4] > 1e6 * max(s[5], 1e-300)
        p = moved.project(x)
        assert norm(M @ p) <= 1e-9 * s[0] * norm(p)


def test_secant_quadrics_vanish_on_projections():
    rng = np.random.default_rng(310)
    cam = TwistedCubic()
    for _ in range(20):
        p = unitize(cam.project(rand_point(rng)))
        vals = secant_quadrics(p)
        assert len(vals) == 5
        assert max(abs(v) for v in vals) <= 1e-10
    q = unitize(rand_line(rng))
    assert max(abs(v) for v in secant_quadrics(q)) > 1e-6


def test_twisted_cubic_homography_conjugation():
    rng = np.random.default_rng(311)
    base = TwistedCubic()
    for _ in range(10):
        H = rng.standard_normal((4, 4))
        if abs(np.linalg.det(H)) < 1e-2:
            continue
        cam = TwistedCubic(H)
        x = rand_point(rng)
        try:
            expect = compound2(H) @ base.project(np.linalg.solve(H, x))
        except FocalPoint:
            continue
        assert_proj_close(cam.project(x), expect, 1e-9)
        assert cam.congruence_residual(unitize(cam.project(x))) <= 1e-9


def test_type3_reference_ideal_on_projections():
    from conftest import _poly_vals_type3_reference
    cam = reference_type3()
    rng = np.random.default_rng(312)
    for _ in range(25):
        x = rand_point(rng)
        try:
            p = unitize(cam.project(x))
        except FocalPoint:
            continue
        vals = np.array(_poly_vals_type3_reference(p))
        assert np.max(np.abs(vals)) <= 1e-9
        assert congruence_residual(cam, p) <= 1e-9
        assert cam.congruence_residual(p) <= 1e-9


def test_type3_rejects_lines_through_curve_base_point():
    """Lines through a point where the curve meets the base line (here
    the root (1:1) of f) are not in the congruence unless they lie in the
    plane of that pencil parameter; method and facade reject them alike,
    for the reference and for generic parameters."""
    cases = [
        (reference_type3(), (0.0, 0.0, 1.0, 1.0)),
        (Type3((1.0, 0.0, -1.0), (1.0, 0.2, 0.0, 0.0), (0.0, 0.0, 0.3, 1.0)),
         (0.0, 0.0, 1.2, 1.3)),
    ]
    rng = np.random.default_rng(318)
    for cam, base_point in cases:
        for _ in range(10):
            p = unitize(line_from_points(np.array(base_point), rand_point(rng)))
            r = cam.congruence_residual(p)
            assert r > 1e-6, (cam, r)
            assert r == congruence_residual(cam, p)


def test_type4_reference_ideal_on_projections():
    from conftest import _poly_vals_type4_reference
    cam = reference_type4()
    rng = np.random.default_rng(313)
    for _ in range(25):
        x = rand_point(rng)
        try:
            p = unitize(cam.project(x))
        except FocalPoint:
            continue
        vals = np.array(_poly_vals_type4_reference(p))
        assert np.max(np.abs(vals)) <= 1e-9
        assert congruence_residual(cam, p) <= 1e-9


def test_type4_binomials_are_leading_forms_of_type3_cubics():
    """Setting the last line coordinate to zero reduces each cubic of the
    first reference system to the corresponding binomial of the second:
    the binomial system is the leading part of the cubic system."""
    from conftest import (_poly_vals_type3_reference,
                          _poly_vals_type4_reference)
    rng = np.random.default_rng(314)
    for _ in range(25):
        p = rng.standard_normal(6)
        p[5] = 0.0
        a = np.array(_poly_vals_type3_reference(p))
        b = np.array(_poly_vals_type4_reference(p))
        np.testing.assert_allclose(a, b, atol=1e-12)
    q = rng.standard_normal(6)
    deltas = (np.array(_poly_vals_type3_reference(q))
              - np.array(_poly_vals_type4_reference(q)))
    assert np.max(np.abs(deltas)) > 1e-6


def test_type3_degenerates_to_type4():
    eps = 1e-6
    small = Type3(eps * np.array([1.0, 0.0, -1.0]),
                  np.array([1.0, 0, 0, 0]), np.array([0.0, 0, 0, 1]))
    limit = reference_type4()
    rng = np.random.default_rng(315)
    for _ in range(15):
        x = rand_point(rng)
        try:
            a, b = small.project(x), limit.project(x)
        except FocalPoint:
            continue
        assert_proj_close(a, b, 1e-4)


def test_type3_focal_points():
    cam = reference_type3()
    with pytest.raises(FocalPoint):
        cam.project(np.array([0.0, 0.0, 1.0, 2.0]))     # on the base line
    with pytest.raises(FocalPoint):
        cam.project(cam.focal_curve.point(1.0, 0.75))


def test_type3_validation():
    g = np.array([1.0, 0, 0, 0])
    h = np.array([0.0, 0, 0, 1])
    with pytest.raises(DegenerateInput):
        Type3(np.zeros(3), g, h)                # f must not vanish
    with pytest.raises(DegenerateInput):
        Type4(g, 2.0 * g)                       # dependent pencil


def test_type3_takes_a_tiny_f_and_refuses_an_exact_zero():
    """f == 0 is tested entry by entry: a float f whose norm underflows
    (1e-200 squares to 0) is still a Type3 camera."""
    g, h = [1, 0, 0], [0, 0, 1]
    for f in ([1e-200, 0], [1e-100, 0], [Fraction(1, 10**400), 0]):
        assert Type3(f, g, h).kind == "type3"
    for f in ([0, 0], [0.0, -0.0], [Fraction(0), Fraction(0)]):
        with pytest.raises(DegenerateInput, match="Type4"):
            Type3(f, g, h)


def test_bidegrees():
    rng = np.random.default_rng(316)
    assert Pinhole(rand_point(rng)).bidegree == (1, 0)
    assert rand_twoslit(rng).bidegree == (1, 1)
    assert rand_pushbroom(rng).bidegree == (1, 1)
    assert TwistedCubic().bidegree == (1, 3)
    assert reference_type3().bidegree == (1, 3)
    assert reference_type4().bidegree == (1, 3)
    assert PanoramicNC().bidegree == (2, 2)
    assert PanoramicStereo().bidegree == (2, 2)


def test_panoramic_cameras_reject_projection():
    for cam in (PanoramicNC(), PanoramicStereo()):
        with pytest.raises(UnsupportedOrder):
            cam.project(np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(UnsupportedOrder):
            project(cam, np.array([1.0, 2.0, 3.0, 4.0]))


def test_panoramic_generators_and_membership():
    """Lines through the axis-and-circle pair satisfy the published
    generator triples; random lines do not."""
    from gvcam.catadioptric import panoramic_fibers
    rng = np.random.default_rng(317)
    nc, st = PanoramicNC(), PanoramicStereo()
    for cam in (nc, st):
        for _ in range(15):
            x = rand_point(rng)
            try:
                fibers = panoramic_fibers(cam, x)
            except FocalConfiguration:
                continue
            for line in fibers:
                line = np.asarray(line)
                if np.iscomplexobj(line):
                    vals = cam.generator_values(line / norm(line))
                else:
                    vals = cam.generator_values(unitize(line))
                assert max(abs(complex(v)) for v in vals) <= 1e-9
        bad = unitize(rand_line(rng))
        assert cam.congruence_residual(bad) > 1e-6


def test_panoramic_focal_quartics():
    nc, st = PanoramicNC(), PanoramicStereo()
    # axis points and the unit circle in the base plane are focal for nc
    assert nc.focal_residual(np.array([1.0, 0.0, 0.0, 2.0])) <= 1e-12
    assert nc.focal_residual(
        np.array([1.0, np.cos(0.3), np.sin(0.3), 0.0])) <= 1e-12
    assert nc.focal_residual(np.array([1.0, 2.0, 0.5, 1.0])) > 1e-6
    # stereo: plane at infinity and the sphere x1^2+x2^2 = x0^2 slice
    assert st.focal_residual(np.array([0.0, 1.0, 2.0, 3.0])) <= 1e-12
    assert st.focal_residual(np.array([1.0, 0.6, 0.8, 0.0])) <= 1e-12
    assert st.focal_residual(np.array([1.0, 2.0, 0.5, 1.0])) > 1e-6


def test_rational_curve_basics():
    assert TWISTED_CUBIC_CURVE.degree == 3
    x = TWISTED_CUBIC_CURVE.point(2.0, 3.0)
    np.testing.assert_allclose(x, [8.0, 12.0, 18.0, 27.0])
    with pytest.raises(DegenerateInput):
        RationalCurve(((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))  # needs 4 forms
    with pytest.raises(DegenerateInput):
        RationalCurve(((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0, 1.0)))


def test_camera_payload_roundtrip():
    rng = np.random.default_rng(319)
    for cam in catalog(rng) + [PanoramicNC(), PanoramicStereo()]:
        clone = camera_from_payload(cam.payload())
        assert clone.kind == cam.kind
        x = rand_point(rng)
        try:
            a = cam.project(x)
        except (FocalPoint, UnsupportedOrder):
            continue
        assert_proj_close(a, clone.project(x), 1e-10)
    # the exact catalog, and the float-residual one (of which only a Type3
    # has exact data), give back the same payload through JSON
    for cam, exact in ([(cam, True) for cam in _EXACT_CATALOG]
                       + [(cam, is_exact(getattr(cam, "g", None)))
                          for cam in _FLOAT_RESIDUAL_CATALOG]):
        text = json.dumps(cam.payload())
        clone = camera_from_payload(json.loads(text), exact=exact)
        assert json.dumps(clone.payload()) == text, cam.kind


def test_module_level_dispatch():
    rng = np.random.default_rng(320)
    cam = rand_twoslit(rng)
    x = rand_point(rng)
    p = project(cam, x)
    assert point_line_residual(x, p) <= DEFAULT_TOL
    assert congruence_residual(cam, p) <= 1e-9
    assert cam.focal_residual(x) > 0


_SINGULAR_H = np.array([[1.0, 2, 0, 1], [0, 1, 1, 0], [1, 3, 1, 1],
                        [2, 0, 1, 3]])       # row 3 = row 1 + row 2


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))
def test_twisted_cubic_homography_check_ignores_scale(lam):
    """lam * H is the same camera as H: it is accepted alike, with the same
    residuals up to rounding, and a singular H is rejected at any scale."""
    rng = np.random.default_rng(321)
    H = rng.standard_normal((4, 4))
    H /= abs(np.linalg.det(H)) ** 0.25          # det(H) = +-1
    base, scaled = TwistedCubic(H), TwistedCubic(lam * H)
    lines = [base.project(rand_point(rng)) for _ in range(4)]
    lines += [rand_line(rng) for _ in range(4)]
    r0 = congruence_residual(base, np.array(lines))
    r1 = congruence_residual(scaled, np.array(lines))
    assert np.all(np.abs(r1 - r0) <= 1e-12 + 1e-9 * r0)
    assert np.all(r0[:4] <= 1e-9) and np.all(r0[4:] > 1e-6)
    with pytest.raises(DegenerateInput, match="invertible"):
        TwistedCubic(lam * _SINGULAR_H)


@pytest.mark.parametrize("scale", [1e-100, 1e-50, 1e50, 1e80])
def test_twisted_cubic_homography_check_at_extreme_scales(scale):
    """The invertibility test reads H at a power-of-two scale: an
    invertible H is accepted at scales where det H and ||H||^4 under- or
    overflow, with no warning, and a singular one is still refused."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cam = TwistedCubic(scale * np.eye(4))
        with pytest.raises(DegenerateInput, match="invertible"):
            TwistedCubic(scale * _SINGULAR_H)
    assert cam.homography.tobytes() == (scale * np.eye(4)).tobytes()


def test_twisted_cubic_float_homography_projects_at_any_scale():
    """s * I is the standard camera at every scale s from 1e-100 to 1e80:
    it projects (1:2:3:4) to the standard line up to scale, which is in
    its congruence."""
    x, want = np.array([1.0, 2, 3, 4]), TwistedCubic().project([1.0, 2, 3, 4])
    for e in range(-100, 81, 10):
        cam = TwistedCubic(10.0 ** e * np.eye(4))
        line = cam.project(x)
        assert_proj_close(line, want, 1e-14, msg="1e%d" % e)
        assert congruence_residual(cam, line) <= 1e-15


def test_twisted_cubic_homography_check_at_unit_scale():
    """At unit spectral norm the test is |det H| <= 1e-12, as before."""
    with pytest.raises(DegenerateInput, match="invertible"):
        TwistedCubic(np.diag([1.0, 1.0, 1.0, 1e-13]))
    TwistedCubic(np.diag([1.0, 1.0, 1.0, 1e-11]))
