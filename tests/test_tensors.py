"""Tests for matrix-form cameras and their multifocal tensors.

Covers the fundamental matrix, quadrifocal and mixed pinhole/two-slit
tensors, the degree-6 realizability invariant of the mixed tensor, the
rational-map photographic cameras of order-(1, beta) congruences, and the
JSON payload round trips.
"""

import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import assert_proj_close, rand_point
from gvcam.cameras import Pinhole, TwoSlit
from gvcam.errors import (BaseLocus, CoincidentCenters, DegenerateInput,
                          SingularStack)
from gvcam.numeric import as_float, det4, is_exact, norm, unitize, vec
from gvcam.plucker import incidence, points_on_line, primal_matrix
from gvcam.tensors import (class_beta_fiber, class_beta_project,
                           fundamental_matrix, mixed_epipolar_tensor,
                           mixed_residual, parse_sextic_text, pinhole_center,
                           pinhole_fiber, pinhole_project,
                           quadrifocal_residual, quadrifocal_tensor,
                           sextic_invariant, sextic_relative, sextic_terms,
                           tensor_from_payload, tensor_payload, twoslit_fiber,
                           twoslit_kernels, twoslit_project)

E3 = np.eye(3)


def rand_full_rank(rng, rows):
    """Random rows x 4 matrix, resampled until comfortably full rank."""
    while True:
        m = rng.standard_normal((rows, 4))
        if np.linalg.svd(m, compute_uv=False)[-1] > 1e-2:
            return m


def rand_rational_matrix(rng, rows):
    return np.array(
        [[Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
          for _ in range(4)] for _ in range(rows)], dtype=object)


def on_line(line, x, scale=1.0):
    """Max residual of x against the incidence system of the line."""
    return norm(primal_matrix(line) @ x) / max(norm(line) * norm(x), scale)


# ---------------------------------------------------------------------------
# fundamental matrix


def test_fundamental_canonical_value_exact():
    A = [[Fraction(1), 0, 0, 0], [0, Fraction(1), 0, 0], [0, 0, Fraction(1), 0]]
    B = [[Fraction(1), 0, 0, 0], [0, Fraction(1), 0, 0], [0, 0, 0, Fraction(1)]]
    F = fundamental_matrix(A, B)
    assert is_exact(F)
    expected = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=object)
    assert all(F[i][j] == expected[i][j] for i in range(3) for j in range(3))


def test_fundamental_epipolar_identity_exact(rng):
    hits = 0
    while hits < 10:
        A = rand_rational_matrix(rng, 3)
        B = rand_rational_matrix(rng, 3)
        try:
            F = fundamental_matrix(A, B)
        except (DegenerateInput, CoincidentCenters):
            continue
        x = np.array([Fraction(int(rng.integers(-4, 5))) for _ in range(4)],
                     dtype=object)
        u, v = A @ x, B @ x
        assert sum(v[i] * F[i][j] * u[j]
                   for i in range(3) for j in range(3)) == 0
        hits += 1


def test_fundamental_epipolar_identity_float(rng):
    for _ in range(25):
        A, B = rand_full_rank(rng, 3), rand_full_rank(rng, 3)
        F = fundamental_matrix(A, B)
        x = rand_point(rng)
        u, v = unitize(A @ x), unitize(B @ x)
        assert abs(v @ F @ u) <= 1e-10 * norm(F)
        y = rand_point(rng)
        assert abs(unitize(B @ y) @ F @ u) > 1e-7 * norm(F)


def test_fundamental_matrix_is_singular(rng):
    for _ in range(25):
        F = fundamental_matrix(rand_full_rank(rng, 3), rand_full_rank(rng, 3))
        assert norm(F) > 0
        assert abs(np.linalg.det(F)) <= 1e-10 * norm(F) ** 3


def test_fundamental_coincident_centers_rejected(rng):
    A = rand_full_rank(rng, 3)
    G = rand_full_rank(rng, 3)[:, :3]
    with pytest.raises(CoincidentCenters):
        fundamental_matrix(A, G @ A)


# ---------------------------------------------------------------------------
# matrix cameras and their fibers


def test_pinhole_center_is_kernel(rng):
    for _ in range(10):
        A = rand_full_rank(rng, 3)
        c = pinhole_center(A)
        assert norm(A @ c) <= 1e-10 * norm(A) * norm(c)
        with pytest.raises(BaseLocus):
            pinhole_project(A, c)


def test_pinhole_fiber_matches_geometric_camera(rng):
    for _ in range(20):
        A = rand_full_rank(rng, 3)
        x = rand_point(rng)
        line = pinhole_fiber(A, pinhole_project(A, x))
        assert on_line(line, x) <= 1e-9
        center = pinhole_center(A)
        assert on_line(line, center) <= 1e-9
        assert_proj_close(line, Pinhole(center).project(x), 1e-9)


def test_twoslit_kernels_are_the_slits(rng):
    for _ in range(10):
        A, B = rand_full_rank(rng, 2), rand_full_rank(rng, 2)
        k1, k2 = twoslit_kernels(A, B)
        for mat, line in ((A, k1), (B, k2)):
            for p in points_on_line(line):
                assert norm(mat @ p) <= 1e-9 * norm(mat) * norm(p)


def test_twoslit_fiber_matches_geometric_camera(rng):
    for _ in range(20):
        A, B = rand_full_rank(rng, 2), rand_full_rank(rng, 2)
        if np.linalg.svd(np.vstack([A, B]), compute_uv=False)[-1] < 1e-2:
            continue
        x = rand_point(rng)
        u, v = twoslit_project((A, B), x)
        line = twoslit_fiber((A, B), u, v)
        assert on_line(line, x) <= 1e-8
        k1, k2 = twoslit_kernels(A, B)
        assert abs(incidence(line, k1)) <= 1e-8 * norm(line) * norm(k1)
        assert abs(incidence(line, k2)) <= 1e-8 * norm(line) * norm(k2)
        assert_proj_close(line, TwoSlit(k1, k2).project(x), 1e-8)


def test_twoslit_fiber_canonical_value():
    pair = (np.array([[1., 0, 0, 0], [0., 1, 0, 0]]),
            np.array([[0., 0, 1, 0], [0., 0, 0, 1]]))
    line = twoslit_fiber(pair, np.array([1., 0]), np.array([1., 0]))
    assert_proj_close(line, np.array([0., 1, 0, 0, 0, 0]), 1e-12)


def test_twoslit_singular_stack_rejected():
    A = np.array([[1., 0, 0, 0], [0., 1, 0, 0]])
    B = np.array([[1., 1, 0, 0], [0., 2, 0, 0]])
    with pytest.raises(SingularStack):
        twoslit_fiber((A, B), np.array([1., 0]), np.array([1., 0]))


def test_twoslit_fiber_exact(rng):
    """Integer pairs as Fractions: the fiber is exact, has the projective
    class of the float fiber and contains the preimage point; a singular
    stack and a zero image point are refused exactly."""
    checked = 0
    while checked < 10:
        A, B = vec(rng.integers(-5, 6, (2, 2, 4)), exact=True)
        x = vec(rng.integers(-5, 6, 4), exact=True)
        if det4(np.vstack([A, B])) == 0:
            continue
        try:
            u, v = twoslit_project((A, B), x)
        except BaseLocus:
            continue
        line = twoslit_fiber((A, B), u, v)
        assert is_exact(line)
        assert not np.any(primal_matrix(line) @ x)
        floats = twoslit_fiber((as_float(A), as_float(B)), as_float(u),
                               as_float(v))
        assert_proj_close(as_float(line), floats, 1e-12)
        checked += 1
    A = vec([[1, 0, 0, 0], [0, 1, 0, 0]], exact=True)
    e0 = vec([1, 0], exact=True)
    with pytest.raises(SingularStack):
        twoslit_fiber((A, vec([[1, 1, 0, 0], [0, 2, 0, 0]], exact=True)),
                      e0, e0)
    B = vec([[0, 0, 1, 0], [0, 0, 0, 1]], exact=True)
    with pytest.raises(BaseLocus):
        twoslit_fiber((A, B), vec([0, 0], exact=True), e0)


def test_twoslit_project_base_locus():
    pair = (np.array([[1., 0, 0, 0], [0., 1, 0, 0]]),
            np.array([[0., 0, 1, 0], [0., 0, 0, 1]]))
    with pytest.raises(BaseLocus):
        twoslit_project(pair, np.array([0., 0, 1., 0.]))


# ---------------------------------------------------------------------------
# quadrifocal and mixed tensors


def test_quadrifocal_vanishes_on_correspondences(rng):
    for _ in range(20):
        mats = [rand_full_rank(rng, 2) for _ in range(4)]
        T = quadrifocal_tensor(*mats)
        assert T.shape == (2, 2, 2, 2)
        for _ in range(5):
            x = rand_point(rng)
            images = [m @ x for m in mats]
            assert quadrifocal_residual(T, *images) <= 1e-10


def test_quadrifocal_separates_mismatches(rng):
    for _ in range(20):
        mats = [rand_full_rank(rng, 2) for _ in range(4)]
        T = quadrifocal_tensor(*mats)
        x, y = rand_point(rng), rand_point(rng)
        images = [m @ x for m in mats]
        images[2] = mats[2] @ y
        assert quadrifocal_residual(T, *images) > 1e-7


def test_mixed_tensor_vanishes_on_correspondences(rng):
    for _ in range(20):
        P = rand_full_rank(rng, 3)
        A, B = rand_full_rank(rng, 2), rand_full_rank(rng, 2)
        T = mixed_epipolar_tensor(P, A, B)
        assert T.shape == (3, 2, 2)
        for _ in range(5):
            x = rand_point(rng)
            assert mixed_residual(T, P @ x, A @ x, B @ x) <= 1e-10
        x, y = rand_point(rng), rand_point(rng)
        assert mixed_residual(T, P @ y, A @ x, B @ x) > 1e-7


@pytest.mark.parametrize("residual, shape", [
    (quadrifocal_residual, (2, 2, 2, 2)), (mixed_residual, (3, 2, 2))],
    ids=["quadrifocal", "mixed"])
def test_residual_refuses_the_zero_tensor(residual, shape):
    """The zero tensor has no normalized contraction: DegenerateInput, not
    a ZeroDivisionError."""
    points = [np.ones(n) for n in shape]
    with pytest.raises(DegenerateInput, match="zero tensor"):
        residual(np.zeros(shape), *points)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e200, 1e300],
                         ids=["1e-300", "1e-170", "1e200", "1e300"])
@pytest.mark.parametrize("residual, shape", [
    (quadrifocal_residual, (2, 2, 2, 2)), (mixed_residual, (3, 2, 2))],
    ids=["quadrifocal", "mixed"])
def test_residual_of_a_tensor_whose_squares_leave_the_float_range(
        residual, shape, scale):
    """A tensor whose squares under- or overflow has the residual of the
    same tensor at unit scale (it used to divide by a zero norm, or by an
    infinite one, a false zero), with no warning; a tensor at unit scale
    keeps its bits."""
    rng = np.random.default_rng(27)
    T = rng.standard_normal(shape)
    points = [rng.standard_normal(n) for n in shape]
    ldexp = np.ldexp(T, -np.frexp(np.max(np.abs(T)))[1])   # exact
    want = residual(ldexp, *points)
    assert want > 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = residual(scale * T, *points)
    assert got == pytest.approx(want, rel=1e-12)
    unit = residual(T, *points)
    assert unit == abs(float(np.einsum(
        "ijkl,i,j,k,l" if len(shape) == 4 else "ijk,i,j,k", T,
        *[unitize(p) for p in points]))) / norm(T)


def test_mixed_tensor_rank_drops_when_center_meets_slit():
    # pinhole center e3 lies on the slit x0 = x1 = 0 of the first 2x4 factor
    P = np.array([[1., 0, 0, 0], [0., 1, 0, 0], [0., 0, 1, 0]])
    A = np.array([[1., 0, 0, 0], [0., 1, 0, 0]])
    B = np.array([[0., 0, 1, 0], [0., 0, 0, 1]])
    T = mixed_epipolar_tensor(P, A, B)
    s = np.linalg.svd(T.reshape(3, 4), compute_uv=False)
    assert s[2] <= 1e-12 * s[0]
    assert sextic_relative(T) <= 1e-12


def test_mixed_tensor_generic_rank_is_full(rng):
    for _ in range(10):
        T = mixed_epipolar_tensor(rand_full_rank(rng, 3),
                                  rand_full_rank(rng, 2),
                                  rand_full_rank(rng, 2))
        s = np.linalg.svd(T.reshape(3, 4), compute_uv=False)
        assert s[2] > 1e-6 * s[0]


# ---------------------------------------------------------------------------
# degree-6 realizability invariant of the mixed tensor


def test_sextic_vanishes_on_camera_tensors(rng):
    for _ in range(30):
        T = mixed_epipolar_tensor(rand_full_rank(rng, 3),
                                  rand_full_rank(rng, 2),
                                  rand_full_rank(rng, 2))
        assert sextic_relative(T) <= 1e-8


def test_sextic_separates_generic_tensors(rng):
    values = [sextic_relative(rng.standard_normal((3, 2, 2)))
              for _ in range(30)]
    assert min(values) > 1e-3


def test_sextic_covariance_under_coordinate_changes(rng):
    for _ in range(10):
        T = rng.standard_normal((3, 2, 2))
        g1 = rand_full_rank(rng, 3)[:, :3]
        g2, g3 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        if min(abs(np.linalg.det(g)) for g in (g1, g2, g3)) < 1e-2:
            continue
        gT = np.einsum("ia,jb,kc,abc->ijk", g1, g2, g3, T)
        lhs = sextic_invariant(gT)
        rhs = (np.linalg.det(g1) ** 2 * np.linalg.det(g2) ** 3
               * np.linalg.det(g3) ** 3 * sextic_invariant(T))
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_sextic_term_table_structure():
    terms = sextic_terms()
    assert isinstance(terms, tuple)     # shared by every caller
    assert len(terms) == 66
    assert Counter(c for c, _ in terms) == {1: 30, -1: 30, 2: 3, -2: 3}
    for coeff, idx in terms:
        assert len(idx) == 6
        for i, j, k in idx:
            assert 0 <= i <= 2 and 0 <= j <= 1 and 0 <= k <= 1
    # all monomials distinct once factor order is ignored
    monos = [tuple(sorted(idx)) for _, idx in terms]
    assert len(set(monos)) == 66


def test_sextic_exact_evaluation_matches_float(rng):
    T = np.array([[[Fraction(int(rng.integers(-3, 4)), 2) for _ in range(2)]
                   for _ in range(2)] for _ in range(3)], dtype=object)
    exact = sextic_invariant(T)
    assert isinstance(exact, Fraction)
    assert abs(float(exact) - sextic_invariant(np.array(T, float))) <= 1e-9


def test_parse_sextic_text_round_trip_and_errors():
    got = parse_sextic_text("# comment\n\n2 f111^2 f322^4\n")
    assert got == [(2, ((0, 0, 0), (0, 0, 0), (2, 1, 1), (2, 1, 1),
                        (2, 1, 1), (2, 1, 1)))]
    with pytest.raises(DegenerateInput):
        parse_sextic_text("1 g111 f111 f111 f111 f111 f111")
    with pytest.raises(DegenerateInput):
        parse_sextic_text("x f111 f111 f111 f111 f111 f111")


# ---------------------------------------------------------------------------
# photographic cameras of order-(1, beta) congruences


def test_class_beta_reference_image_polynomials(rng):
    f, g, h = [1, 0], [1, 0, 1], [0, 1, 0]
    for _ in range(20):
        x = rand_point(rng)
        if abs(x[0]) < 0.1 or norm(x[:2]) < 0.1:
            continue
        u, v = class_beta_project(f, g, h, x)
        assert_proj_close(u, x[:2], 1e-9)
        expected = np.array([x[0] ** 2 + x[1] ** 2 - x[0] * x[2],
                             x[0] * x[1] - x[0] * x[3]])
        assert_proj_close(v, expected, 1e-9)


def test_class_beta_fiber_contains_point_line_and_curve(rng):
    f, g, h = [1, 0], [1, 0, 1], [0, 1, 0]
    base_line = np.array([0., 0, 0, 0, 0, 1])
    for _ in range(20):
        x = rand_point(rng)
        if abs(x[0]) < 0.1 or norm(x[:2]) < 0.1:
            continue
        u, v = class_beta_project(f, g, h, x)
        line = class_beta_fiber(f, g, h, u, v)
        assert on_line(line, x) <= 1e-8
        assert abs(incidence(line, base_line)) <= 1e-10 * norm(line)
        s, t = u
        curve_point = np.array([s ** 2, s * t, s ** 2 + t ** 2, s * t])
        assert on_line(line, curve_point) <= 1e-8


def test_class_beta_default_matrices_follow_the_point_type():
    f, g, h = ([Fraction(c) for c in coeffs]
               for coeffs in ([1, 2], [1, 0, 1], [0, 1, -3]))
    x = vec([2, Fraction(1, 3), 5, -7], exact=True)
    A = vec([[1, 0, 0, 0], [0, 1, 0, 0]], exact=True)
    B = vec([[0, 0, 1, 0], [0, 0, 0, 1]], exact=True)
    default, canonical = (class_beta_project(f, g, h, x),
                          class_beta_project(f, g, h, x, A, B))
    for got, want in zip(default, canonical):
        assert [type(c) for c in got] == [Fraction, Fraction]
        assert got.tolist() == want.tolist()
    float_default = class_beta_project(*(as_float(vec(c)) for c in (f, g, h)),
                                       as_float(x))
    for got in float_default:
        assert got.dtype == np.float64


def test_class_beta_rejects_base_line_points():
    with pytest.raises(BaseLocus):
        class_beta_project([1, 0], [1, 0, 1], [0, 1, 0], [0, 0, 1, 1])


def test_quadratic_images_related_by_plane_cremona(rng):
    # two triples of quadrics with the same fibers: the transversals of the
    # lines x2 = x3 = 0 and x0 = x1 = 0; their images differ by the standard
    # plane Cremona involution.
    def m_first(x):
        return np.array([x[0] * x[3], x[1] * x[2], x[1] * x[3]])

    def m_second(x):
        return np.array([x[1] * x[2], x[0] * x[3], x[0] * x[2]])

    def cremona(w):
        return np.array([w[1] * w[2], w[0] * w[2], w[0] * w[1]])

    cam = TwoSlit(np.array([1., 0, 0, 0, 0, 0]), np.array([0., 0, 0, 0, 0, 1]))
    for _ in range(20):
        x = rand_point(rng)
        if min(norm(x[:2]), norm(x[2:]), abs(x[1] * x[3])) < 1e-2:
            continue
        assert_proj_close(cremona(m_first(x)), m_second(x), 1e-9)
        # both maps are constant on the same transversal line
        line = cam.project(x)
        a, b = rng.standard_normal(2) + 2.0
        y = a * np.array([x[0], x[1], 0, 0]) + b * np.array([0, 0, x[2], x[3]])
        assert on_line(line, y) <= 1e-9
        assert_proj_close(m_first(y), m_first(x), 1e-9)
        assert_proj_close(m_second(y), m_second(x), 1e-9)


# ---------------------------------------------------------------------------
# payloads


def test_tensor_payload_round_trips(rng):
    cases = [
        ("fundamental", fundamental_matrix(rand_full_rank(rng, 3),
                                           rand_full_rank(rng, 3))),
        ("quadrifocal", quadrifocal_tensor(*(rand_full_rank(rng, 2)
                                             for _ in range(4)))),
        ("mixed", mixed_epipolar_tensor(rand_full_rank(rng, 3),
                                        rand_full_rank(rng, 2),
                                        rand_full_rank(rng, 2))),
    ]
    for kind, T in cases:
        payload = tensor_payload(kind, T)
        assert payload["kind"] == kind
        back_kind, back = tensor_from_payload(payload)
        assert back_kind == kind
        assert np.allclose(np.array(back, float), np.array(T, float))


def test_tensor_payload_exact_round_trip():
    A = [[Fraction(1), 0, 0, 0], [0, Fraction(1), 0, 0], [0, 0, Fraction(1), 0]]
    B = [[Fraction(1), 0, 0, 0], [0, Fraction(1), 0, 0], [0, 0, 0, Fraction(1)]]
    F = fundamental_matrix(A, B)
    payload = tensor_payload("fundamental", F)
    assert payload["entries"][0][1] == "1"
    kind, back = tensor_from_payload(payload, exact=True)
    assert kind == "fundamental" and is_exact(back)
    assert all(back[i][j] == F[i][j] for i in range(3) for j in range(3))


def test_tensor_payload_rejects_bad_input(rng):
    with pytest.raises(DegenerateInput):
        tensor_payload("septifocal", np.eye(3))
    with pytest.raises(DegenerateInput):
        tensor_from_payload({"kind": "mixed", "entries": [[1.0, 2.0]]})
