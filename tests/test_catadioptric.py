"""Tests for mirror geometry: reflections across planes, specular line
pairs on smooth mirror surfaces, and the two-line fibers of the
order-two panoramic cameras."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (ELLIPSOID_FOCI, assert_proj_close, ellipsoid_point,
                      rand_point)
from gvcam.cameras import PanoramicNC, PanoramicStereo, Pinhole
from gvcam.catadioptric import (MirrorSurface, ReflectionMap, direction_cos,
                                line_surface_points, mirror_pair_residual,
                                panoramic_fibers, point_line_residual,
                                reference_ellipsoid, reflect_line,
                                reflect_point, specular_pair, tangent_plane,
                                unit_sphere)
from gvcam.errors import (DegenerateInput, FocalConfiguration,
                          IsotropicDirection, IsotropicPlane,
                          IsotropicTangent, NotOnSurface,
                          SingularIntersection, SingularPoint)
from gvcam.numeric import binary_eval, norm, projective_distance, unitize, vec
from gvcam.plucker import (dual_line, incidence, line_from_points, meet_point,
                           plucker_quadric, primal_matrix, wedge)

AXIS = np.array([0., 0, 1, 0, 0, 0])  # the line x1 = x2 = 0


def rand_rational_vec(rng, n):
    return np.array([Fraction(int(rng.integers(-4, 5)),
                              int(rng.integers(1, 4))) for _ in range(n)],
                    dtype=object)


def rand_rational_plane(rng):
    while True:
        H = rand_rational_vec(rng, 4)
        if H[1] ** 2 + H[2] ** 2 + H[3] ** 2 != 0:
            return H


def rand_rational_line(rng):
    while True:
        x, y = rand_rational_vec(rng, 4), rand_rational_vec(rng, 4)
        try:
            return line_from_points(x, y)
        except DegenerateInput:
            continue


def spatial_square(H):
    return H[1] ** 2 + H[2] ** 2 + H[3] ** 2


# ---------------------------------------------------------------------------
# plane reflections


def test_reflection_is_involution_exact(rng):
    for _ in range(10):
        H = rand_rational_plane(rng)
        s = spatial_square(H)
        y = rand_rational_vec(rng, 4)
        twice = reflect_point(H, reflect_point(H, y))
        assert all(twice[i] == s ** 2 * y[i] for i in range(4))
        p = rand_rational_line(rng)
        ptwice = reflect_line(H, reflect_line(H, p))
        assert all(ptwice[i] == s ** 4 * p[i] for i in range(6))


def test_reflection_scales_incidence_exact(rng):
    for _ in range(10):
        H = rand_rational_plane(rng)
        s = spatial_square(H)
        p, q = rand_rational_line(rng), rand_rational_line(rng)
        lhs = incidence(reflect_line(H, p), reflect_line(H, q))
        assert lhs == -s ** 4 * incidence(p, q)


def test_reflection_preserves_line_coordinates(rng):
    for _ in range(10):
        H = rand_rational_plane(rng)
        p = rand_rational_line(rng)
        assert plucker_quadric(reflect_line(H, p)) == 0
    for _ in range(10):
        H = rand_point(rng)
        if norm(H[1:]) < 0.1:
            continue
        y, z = rand_point(rng), rand_point(rng)
        image = reflect_line(H, line_from_points(y, z))
        joined = line_from_points(reflect_point(H, y), reflect_point(H, z))
        assert_proj_close(image, joined, 1e-9)


def test_plane_fixes_its_own_points_and_lines(rng):
    H = np.array([Fraction(2), Fraction(1), Fraction(-1), Fraction(3)],
                 dtype=object)
    s = spatial_square(H)
    for _ in range(10):
        y = rand_rational_vec(rng, 4)
        # project y into the plane: replace the last coordinate
        y[3] = -(H[0] * y[0] + H[1] * y[1] + H[2] * y[2]) / H[3]
        assert all(reflect_point(H, y)[i] == s * y[i] for i in range(4))
    # a point off the plane genuinely moves
    moved = reflect_point(H, np.array([1., 0, 0, 0]))
    assert projective_distance(unitize(moved), np.array([1., 0, 0, 0])) > 0.1


def test_isotropic_plane_rejected():
    with pytest.raises(IsotropicPlane):
        ReflectionMap(np.array([5., 0, 0, 0]))
    with pytest.raises(IsotropicPlane):
        reflect_point([Fraction(1), 0, 0, 0], [1, 2, 3, 4])


def test_complex_plane_with_complex_square_reflects():
    """A complex plane whose normal squares to 2j is not isotropic."""
    H = np.array([1, 1 + 1j, 0, 0])
    rho = ReflectionMap(H).matrix
    assert np.allclose(rho @ rho, (2j) ** 2 * np.eye(4))


def test_normal_line_fixed_generic_line_moves(rng):
    S = unit_sphere()
    for _ in range(10):
        x = unitize(np.append(1.0, unitize(rng.standard_normal(3))))
        g = tangent_plane(S, x)
        normal = line_from_points(x, np.append(0.0, g[1:]))
        assert projective_distance(unitize(reflect_line(g, normal)),
                                   unitize(normal)) <= 1e-9
        # a line inside the mirror plane is fixed as well
        d = unitize(np.cross(g[1:], rng.standard_normal(3)))
        inside = line_from_points(x, x + np.append(0.0, d))
        assert projective_distance(unitize(reflect_line(g, inside)),
                                   unitize(inside)) <= 1e-8
        # a generic ray through the contact point moves
        generic = line_from_points(x, rand_point(rng))
        assert projective_distance(unitize(reflect_line(g, generic)),
                                   unitize(generic)) > 1e-3


# ---------------------------------------------------------------------------
# mirror surfaces and specular pairs


def test_ellipsoid_focus_reflects_to_other_focus(rng):
    S = reference_ellipsoid()
    f_plus, f_minus = ELLIPSOID_FOCI
    assert_proj_close(f_plus, np.array([1., 0, 0, 3]), 1e-12)
    assert_proj_close(f_minus, np.array([1., 0, 0, -3]), 1e-12)
    for _ in range(20):
        theta = rng.uniform(0.2, math.pi - 0.2)
        phi = rng.uniform(0, 2 * math.pi)
        x = ellipsoid_point(theta, phi)
        assert abs(S.evaluate(x)) <= 1e-10
        ray = line_from_points(f_plus, x)
        reflected = specular_pair(S, x, ray)
        assert point_line_residual(x, reflected) <= 1e-8
        assert point_line_residual(f_minus, reflected) <= 1e-6
        assert mirror_pair_residual(S, ray, reflected) <= 1e-7


def test_specular_pair_is_symmetric(rng):
    S = unit_sphere()
    for _ in range(10):
        x = unitize(np.append(1.0, unitize(rng.standard_normal(3))))
        ray = line_from_points(x, rand_point(rng))
        reflected = specular_pair(S, x, ray)
        assert mirror_pair_residual(S, reflected, ray) <= 1e-7


def test_mirror_pair_residual_infinite_when_line_misses():
    S = unit_sphere()
    far = line_from_points(np.array([1., 5, 0, 0]), np.array([1., 5, 1, 0]))
    assert mirror_pair_residual(S, far, far) == math.inf


def test_line_surface_points_secant_tangent_exterior():
    S = unit_sphere()
    secant = line_from_points(np.array([1., -2, 0.1, 0]),
                              np.array([1., 2, -0.1, 0]))
    pts = line_surface_points(S, secant)
    assert len(pts) == 2
    for p in pts:
        assert abs(S.evaluate(unitize(p))) <= 1e-9
        assert point_line_residual(p, secant) <= 1e-9
    # tangent: grazing contact appears as a double root at the same point
    x = np.array([1., 0.6, 0.8, 0])
    tangent = line_from_points(x, x + np.array([0., -0.8, 0.6, 0]))
    pts = line_surface_points(S, tangent)
    assert len(pts) == 2
    for p in pts:
        assert projective_distance(unitize(p), unitize(x)) <= 1e-6
    assert mirror_pair_residual(S, tangent, tangent) <= 1e-6
    exterior = line_from_points(np.array([1., 5, 0, 0]),
                                np.array([1., 5, 0, 1]))
    assert line_surface_points(S, exterior) == []


def test_line_contained_in_surface():
    cone = MirrorSurface(2, {(0, 2, 0, 0): 1, (0, 0, 2, 0): 1,
                             (0, 0, 0, 2): -1})
    ruling = line_from_points(np.array([1., 0, 0, 0]),
                              np.array([0., 1, 0, 1]))
    pts = line_surface_points(cone, ruling)
    assert len(pts) == 2
    for p in pts:
        assert abs(cone.evaluate(unitize(p))) <= 1e-12


def test_plane_mirror_contacts():
    """A degree-1 surface, the plane x3 = 0: a line crossing it has one
    contact, and a line lying in it gives its two spanning points."""
    plane = MirrorSurface(1, {(0, 0, 0, 1): 1})
    crossing = line_from_points(np.array([1., 0, 0, 1]),
                                np.array([1., 1, 0, -1]))
    (p,) = line_surface_points(plane, crossing)
    assert abs(p[3]) <= 1e-12 * norm(p)
    assert point_line_residual(p, crossing) <= 1e-12
    lying = line_from_points(np.array([1., 0, 0, 0]), np.array([1., 1, 1, 0]))
    pts = line_surface_points(plane, lying)
    assert len(pts) == 2
    for p in pts:
        assert p[3] == 0
        assert point_line_residual(p, lying) <= 1e-12
    assert norm(wedge(*pts)) > 0.1 * norm(pts[0]) * norm(pts[1])


def test_tangent_plane_errors():
    S = unit_sphere()
    with pytest.raises(NotOnSurface):
        tangent_plane(S, np.array([1., 2, 0, 0]))
    cone = MirrorSurface(2, {(0, 2, 0, 0): 1, (0, 0, 2, 0): 1,
                             (0, 0, 0, 2): -1})
    with pytest.raises(SingularPoint):
        tangent_plane(cone, np.array([1., 0, 0, 0]))


def test_isotropic_tangent_plane_rejected():
    S = MirrorSurface(2, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
    x = np.array([0., 1, 0, 0])
    ray = line_from_points(x, np.array([1., 0, 0, 0]))
    with pytest.raises(IsotropicTangent):
        specular_pair(S, x, ray)


def test_singular_intersection_rejected():
    cone = MirrorSurface(2, {(0, 2, 0, 0): 1, (0, 0, 2, 0): 1,
                             (0, 0, 0, 2): -1})
    through_apex = line_from_points(np.array([1., 0, 0, 0]),
                                    np.array([0., 1, 0, 0]))
    with pytest.raises(SingularIntersection):
        mirror_pair_residual(cone, through_apex, through_apex)


def test_specular_pair_requires_contact_point():
    S = unit_sphere()
    with pytest.raises(DegenerateInput):
        specular_pair(S, np.array([1., 1, 0, 0]),
                      line_from_points(np.array([1., 0, 0, 1]),
                                       np.array([1., 0, 1, 0])))


# ---------------------------------------------------------------------------
# the MirrorSurface container


def test_mirror_surface_validation():
    with pytest.raises(DegenerateInput):
        MirrorSurface(2, {(1, 0, 0, 0): 1.0})
    with pytest.raises(DegenerateInput):
        MirrorSurface(3, {})


def test_mirror_surface_payload_round_trip():
    S = MirrorSurface(2, {(2, 0, 0, 0): Fraction(-1),
                          (0, 2, 0, 0): Fraction(1, 16),
                          (0, 0, 2, 0): Fraction(1, 16),
                          (0, 0, 0, 2): Fraction(1, 25)})
    payload = S.payload()
    assert payload["degree"] == 2
    assert payload["coeffs"]["2000"] == "-1"
    assert payload["coeffs"]["0200"] == "1/16"
    assert payload["coeffs"]["0002"] == "1/25"
    back = MirrorSurface.from_payload(payload, exact=True)
    assert back.coeffs == S.coeffs
    assert back.evaluate([Fraction(1), Fraction(4), 0, 0]) == 0
    # float surfaces round trip through float payloads
    E = reference_ellipsoid()
    again = MirrorSurface.from_payload(E.payload())
    assert again.coeffs == E.coeffs
    # exponents above 9 switch to comma-separated keys
    big = MirrorSurface(12, {(12, 0, 0, 0): 1.0})
    assert "12,0,0,0" in big.payload()["coeffs"]
    assert MirrorSurface.from_payload(big.payload()).coeffs == big.coeffs
    # payloads missing the required keys are rejected as bad input
    with pytest.raises(DegenerateInput):
        MirrorSurface.from_payload({"degree": 2, "coefficients": {}})


def test_restriction_to_line_matches_evaluation(rng):
    S = MirrorSurface(3, {(1, 2, 0, 0): 2.0, (0, 0, 3, 0): -1.0,
                          (1, 0, 1, 1): 0.5, (0, 1, 0, 2): 1.5})
    for _ in range(10):
        a, b = rand_point(rng), rand_point(rng)
        form = S.restrict_to_line(a, b)
        assert len(form) == 4
        s, t = rng.standard_normal(2)
        direct = S.evaluate(s * a + t * b)
        assert abs(binary_eval(form, s, t) - direct) <= 1e-9 * max(
            1.0, abs(direct))


# ---------------------------------------------------------------------------
# panoramic camera fibers


def test_panoramic_noncentral_fibers(rng):
    cam = PanoramicNC()
    for _ in range(10):
        x = rand_point(rng)
        if cam.focal_residual(unitize(x)) < 1e-3:
            continue
        fibers = panoramic_fibers(cam, x)
        assert len(fibers) == 2
        for f in fibers:
            assert not np.iscomplexobj(f)
            assert norm(primal_matrix(f) @ unitize(x)) <= 1e-8
            assert abs(incidence(f, AXIS)) <= 1e-9 * norm(f)
            w = meet_point(f, np.array([0., 0, 0, 1]))  # slice x3 = 0
            assert abs(w[1] ** 2 + w[2] ** 2 - w[0] ** 2) <= 1e-8 * norm(w) ** 2
            assert cam.congruence_residual(f) <= 1e-8


def test_panoramic_stereo_fibers(rng):
    cam = PanoramicStereo()
    for _ in range(10):
        x = rand_point(rng)
        if cam.focal_residual(unitize(x)) < 1e-3:
            continue
        fibers = panoramic_fibers(cam, x)
        assert len(fibers) == 2
        for f in fibers:
            xc = unitize(x).astype(complex)
            assert norm(primal_matrix(f) @ xc) <= 1e-8
            assert abs(incidence(dual_line(f), AXIS)) <= 1e-9 * norm(f)
            assert cam.congruence_residual(f) <= 1e-8


def test_panoramic_fibers_focal_and_input_errors():
    cam = PanoramicNC()
    with pytest.raises(FocalConfiguration):
        panoramic_fibers(cam, np.array([1., 0, 0, 0.5]))   # axis point
    with pytest.raises(FocalConfiguration):
        panoramic_fibers(cam, np.array([1., 0.6, 0.8, 0]))  # circle point
    with pytest.raises(DegenerateInput):
        panoramic_fibers(Pinhole(np.array([1., 0, 0, 0])),
                         np.array([1., 1, 1, 1]))


# ---------------------------------------------------------------------------
# direction helpers


def test_direction_cosine():
    e1 = np.array([0., 1, 0, 0])
    assert abs(direction_cos(e1, np.array([0., 0, 1, 0]))) <= 1e-12
    assert abs(direction_cos(e1, np.array([0., -3, 0, 0])) + 1) <= 1e-12
    assert abs(direction_cos(2 * e1, np.array([0., 1, 1, 0]))
               - 1 / math.sqrt(2)) <= 1e-12
    with pytest.raises(DegenerateInput):
        direction_cos(np.array([1., 1, 0, 0]), e1)
    with pytest.raises(IsotropicDirection):
        direction_cos(np.array([0, 1, 1j, 0]), e1)


def test_ellipsoid_parameterization():
    S = reference_ellipsoid()
    for theta, phi in ((0.3, 1.0), (1.2, 4.0), (2.4, 5.5)):
        x = ellipsoid_point(theta, phi)
        assert abs(S.evaluate(x)) <= 1e-12
        assert x[0] == 1.0
        assert abs(x[3] - 5 * math.cos(theta)) <= 1e-12
    # the unit sphere agrees with unit direction points
    assert abs(unit_sphere().evaluate(np.array([1., 0.6, 0.8, 0]))) <= 1e-12


# ---------------------------------------------------------------------------
# the stacked float path


def _binary_mul(a, b):
    """Product of two binary forms (coefficient convolution)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return np.array(out, dtype=object)


def _loop(S, x, b=None):
    """evaluate, gradient and restrict_to_line of S by the monomial loop
    over Python numbers, on float or Fraction input: the values the
    stacked path must reproduce, bit for bit or exactly."""
    value, grad, form = 0, [0, 0, 0, 0], np.zeros(S.degree + 1, dtype=object)
    for expo, c in S.coeffs:
        term = c
        for xi, e in zip(x, expo):
            if e:
                term = term * xi ** e
        value = value + term
        for j in range(4):
            if expo[j]:
                term = c * expo[j]
                for i in range(4):
                    if expo[i] - (i == j):
                        term = term * x[i] ** (expo[i] - (i == j))
                grad[j] = grad[j] + term
        piece = np.array([c], dtype=object)
        for i in range(4):
            for _ in range(expo[i]):
                piece = _binary_mul(piece, [x[i], b[i]])
        form = form + piece
    return value, np.array(grad), form


STACK_SURFACES = (
    MirrorSurface(2, {(2, 0, 0, 0): Fraction(-1),
                      (0, 2, 0, 0): Fraction(1, 16),
                      (0, 0, 2, 0): Fraction(1, 16),
                      (0, 0, 0, 2): Fraction(1, 25)}),
    MirrorSurface(3, {(3, 0, 0, 0): Fraction(-1), (1, 2, 0, 0): Fraction(2),
                      (0, 0, 3, 0): Fraction(1, 2),
                      (1, 0, 1, 1): Fraction(1, 3),
                      (0, 1, 0, 2): Fraction(3, 2)}))
rational = st.fractions(min_value=-4, max_value=4, max_denominator=3)
rational_points = st.lists(rational, min_size=4, max_size=4)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.sampled_from(STACK_SURFACES),
       st.lists(st.tuples(rational_points, rational_points),
                min_size=1, max_size=6))
def test_stacked_mirror_kernel_matches_rows_and_exact_loop(S, pairs):
    A = np.array([[float(v) for v in a] for a, _ in pairs])
    B = np.array([[float(v) for v in b] for _, b in pairs])
    # stacks equal row-by-row calls, bit for bit
    assert np.array_equal(S.evaluate(A), [S.evaluate(a) for a in A])
    assert np.array_equal(S.gradient(A), [S.gradient(a) for a in A])
    assert np.array_equal(S.restrict_to_line(A, B),
                          [S.restrict_to_line(a, b) for a, b in zip(A, B)])
    # the stacked path agrees with the monomial loop: on floats bit for
    # bit, on Fractions exactly and in Fractions, for a stack and row by
    # row
    Ae = vec([a for a, _ in pairs], exact=True)
    Be = vec([b for _, b in pairs], exact=True)
    for X, Y in ((A, B), (Ae, Be)):
        loops = [_loop(S, x, y) for x, y in zip(X, Y)]
        stacked = (S.evaluate(X), S.gradient(X), S.restrict_to_line(X, Y))
        for got, want in zip(stacked, zip(*loops)):
            assert np.array_equal(got, np.array(want))
        entries = [v for a in stacked for v in np.ravel(a)]
        for (x, y), (value, grad, form) in zip(zip(X, Y), loops):
            one = (S.evaluate(x), S.gradient(x), S.restrict_to_line(x, y))
            assert one[0] == value
            assert np.array_equal(one[1], grad)
            assert np.array_equal(one[2], form)
            entries += [one[0], *one[1], *one[2]]
        if X is Ae:
            assert all(isinstance(v, Fraction) for v in entries)
    # integer and float32 stacks are widened to float64 first
    for narrow in (np.int64, np.float32):
        An, Bn = A.astype(narrow), B.astype(narrow)
        Aw, Bw = An.astype(np.float64), Bn.astype(np.float64)
        assert np.array_equal(S.evaluate(An), S.evaluate(Aw))
        assert np.array_equal(S.gradient(An), S.gradient(Aw))
        assert np.array_equal(S.restrict_to_line(An, Bn),
                              S.restrict_to_line(Aw, Bw))
    # contacts, tangents and reflections of a stack of lines
    lines = [wedge(a, b) for a, b in zip(A, B)]
    lines = np.array([p for p in lines if norm(p) > 0.1]).reshape(-1, 6)
    points, rows = line_surface_points(S, lines)
    assert np.all(np.diff(rows) >= 0)
    for i, L in enumerate(lines):
        one = line_surface_points(S, L)
        assert len(one) == np.count_nonzero(rows == i)
        assert all(np.array_equal(x, y)
                   for x, y in zip(one, points[rows == i]))
    smooth = [k for k in range(len(points))
              if norm(S.gradient(unitize(points[k]))) > 1e-6 * S.scale()]
    if smooth:
        X, Ls = points[smooth], lines[rows[smooth]]
        assert np.array_equal(tangent_plane(S, X, tol=1e-6),
                              [tangent_plane(S, x, tol=1e-6) for x in X])
        try:
            R = specular_pair(S, X, Ls, tol=1e-6)
        except IsotropicTangent:
            return
        assert np.array_equal(R, [specular_pair(S, x, L, tol=1e-6)
                                  for x, L in zip(X, Ls)])


def test_stacked_tangent_and_specular_raise_on_the_bad_row():
    """One bad row in a stack raises what the row alone raises."""
    S = unit_sphere()
    on = np.array([[1., 0.6, 0.8, 0], [1., 0, 0, 1], [1., 1, 0, 0]])
    off = on.copy()
    off[1] = [1., 2, 0, 0]
    with pytest.raises(NotOnSurface):
        tangent_plane(S, off[1])
    with pytest.raises(NotOnSurface):
        tangent_plane(S, off)
    rays = np.array([line_from_points(x, [1., 3, -1, 2]) for x in on])
    assert specular_pair(S, on, rays).shape == (3, 6)
    astray = rays.copy()
    astray[2] = line_from_points([1., 0, 0, 1], [1., 3, -1, 2])
    with pytest.raises(DegenerateInput):
        specular_pair(S, on, astray)
