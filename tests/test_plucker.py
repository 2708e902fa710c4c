"""Line-coordinate algebra: joins, meets, duality, incidence."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gvcam.errors import DegenerateInput
from gvcam.numeric import DEFAULT_TOL, norm, unitize, vec
from gvcam.plucker import (LINE_COORD_PAIRS, dual_line, dual_matrix,
                           incidence, incidence_residual, join_plane,
                           line_from_planes, line_from_points, line_residual,
                           meet_point, plane_line_residual, plucker_quadric,
                           point_line_residual, points_on_line,
                           primal_matrix, wedge)
from conftest import (assert_proj_close, lines_through, rand_line,
                      rand_point, rand_rational_point)


def test_join_satisfies_quadric_float():
    rng = np.random.default_rng(101)
    for _ in range(100):
        p = rand_line(rng)
        assert abs(plucker_quadric(p)) <= 1e-12 * norm(p) ** 2


def test_join_satisfies_quadric_exact():
    rng = np.random.default_rng(102)
    for _ in range(50):
        x, y = rand_rational_point(rng), rand_rational_point(rng)
        if all(v == 0 for v in np.ravel(np.outer(x, y) - np.outer(y, x))):
            continue
        assert plucker_quadric(line_from_points(x, y)) == 0


def test_join_antisymmetric():
    rng = np.random.default_rng(103)
    for _ in range(20):
        x, y = rand_point(rng), rand_point(rng)
        np.testing.assert_allclose(line_from_points(x, y),
                                   -line_from_points(y, x), atol=1e-14)


def test_join_rejects_parallel_points():
    x = np.array([1.0, 2.0, -1.0, 0.5])
    with pytest.raises(DegenerateInput):
        line_from_points(x, 3.0 * x)


def test_incidence_symmetric_and_detects_meeting():
    rng = np.random.default_rng(104)
    for _ in range(60):
        p, q = rand_line(rng), rand_line(rng)
        assert incidence(p, q) == pytest.approx(incidence(q, p), abs=1e-12)
        # rank of the stacked primal system decides "common point"
        stacked = np.vstack([primal_matrix(p), primal_matrix(q)])
        s = np.linalg.svd(stacked, compute_uv=False)
        meets = s[3] <= 1e-9 * s[0]
        zero = abs(incidence(unitize(p), unitize(q))) <= 1e-9
        assert meets == zero
    # and on genuinely meeting lines the incidence vanishes
    for _ in range(60):
        (p, q), x = lines_through(rng, 2)
        assert abs(incidence(unitize(p), unitize(q))) <= 1e-12


def test_incidence_equals_trace_pairing():
    rng = np.random.default_rng(105)
    for _ in range(20):
        p, q = rand_line(rng), rand_line(rng)
        tr = np.trace(primal_matrix(p) @ dual_matrix(q))
        assert incidence(p, q) == pytest.approx(tr, rel=1e-12)


def test_dual_line_involution_and_incidence_preservation():
    rng = np.random.default_rng(106)
    for _ in range(40):
        p, q = rand_line(rng), rand_line(rng)
        np.testing.assert_allclose(dual_line(dual_line(p)), p, atol=1e-14)
        assert incidence(dual_line(p), dual_line(q)) == pytest.approx(
            incidence(p, q), rel=1e-12)


def test_dual_line_matches_sign_rule():
    """The hard-coded signed permutation agrees with the parity rule
    p*_{ij} = sign(i j k l) p_{kl} for each complementary index pair."""

    def parity(perm):
        perm, s = list(perm), 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    s = -s
        return s

    rng = np.random.default_rng(107)
    pos = {pair: k for k, pair in enumerate(LINE_COORD_PAIRS)}
    for _ in range(10):
        p = rand_line(rng)
        d = dual_line(p)
        for (i, j), k in pos.items():
            l, m = (a for a in range(4) if a not in (i, j))
            assert d[k] == pytest.approx(
                parity((i, j, l, m)) * p[pos[(l, m)]], rel=1e-12)


def test_dual_matrix_is_primal_of_dual():
    rng = np.random.default_rng(108)
    p = rand_line(rng)
    np.testing.assert_allclose(dual_matrix(p),
                               primal_matrix(dual_line(p)), atol=0)


def test_primal_matrix_kernel_is_line():
    rng = np.random.default_rng(109)
    for _ in range(20):
        x, y = rand_point(rng), rand_point(rng)
        p = line_from_points(x, y)
        assert norm(primal_matrix(p) @ x) <= 1e-12 * norm(p) * norm(x)
        assert norm(primal_matrix(p) @ y) <= 1e-12 * norm(p) * norm(y)


def test_join_plane_contains_both():
    rng = np.random.default_rng(110)
    for _ in range(100):
        p = rand_line(rng)
        x = rand_point(rng)
        u = join_plane(p, x)
        assert abs(u @ x) <= 1e-10 * norm(u) * norm(x)
        assert plane_line_residual(unitize(u), unitize(p)) <= 1e-10
        assert plane_line_residual(u, p) <= DEFAULT_TOL


def test_join_plane_rejects_point_on_line():
    rng = np.random.default_rng(111)
    (p,), x = lines_through(rng, 1)
    with pytest.raises(DegenerateInput):
        join_plane(p, x)


def test_meet_point_lies_on_both():
    rng = np.random.default_rng(112)
    for _ in range(100):
        p = rand_line(rng)
        u = rand_point(rng)           # generic plane
        x = meet_point(p, u)
        assert abs(u @ x) <= 1e-10 * norm(u) * norm(x)
        assert point_line_residual(unitize(x), unitize(p)) <= 1e-10
        assert point_line_residual(x, p) <= DEFAULT_TOL


def test_line_from_planes_roundtrip():
    rng = np.random.default_rng(113)
    for _ in range(50):
        p = rand_line(rng)
        x = rand_point(rng)
        y = rand_point(rng)
        u, v = join_plane(p, x), join_plane(p, y)
        assert_proj_close(line_from_planes(u, v), p, 1e-9)


def test_line_from_planes_exact():
    rng = np.random.default_rng(114)
    for _ in range(20):
        u, v = rand_rational_point(rng), rand_rational_point(rng)
        if all(val == 0 for val in
               np.ravel(np.outer(u, v) - np.outer(v, u))):
            continue
        p = line_from_planes(u, v)
        assert plucker_quadric(p) == 0
        assert plane_line_residual(u, p) == 0


def test_points_on_line_span_it():
    rng = np.random.default_rng(115)
    for _ in range(40):
        p = rand_line(rng)
        x, y = points_on_line(p)
        assert_proj_close(line_from_points(x, y), p, 1e-9)


def test_line_residual_scale_invariant():
    rng = np.random.default_rng(116)
    p = rand_line(rng)
    assert line_residual(unitize(p)) <= 1e-12
    bad = unitize(p + np.array([0.2, 0, 0, 0, 0, 0.3]))
    assert line_residual(bad) > 1e-3
    assert line_residual(unitize(10 * bad)) == pytest.approx(
        line_residual(bad), rel=1e-12)


def test_incidence_residual_normalizes():
    rng = np.random.default_rng(117)
    p, q = rand_line(rng), rand_line(rng)
    assert incidence_residual(p, q) == pytest.approx(
        incidence_residual(7.0 * p, 0.1 * q), rel=1e-9)


def test_exact_pipeline_is_identically_zero():
    rng = np.random.default_rng(118)
    for _ in range(20):
        x = rand_rational_point(rng)
        y = rand_rational_point(rng)
        z = rand_rational_point(rng)
        try:
            p = line_from_points(x, y)
            q = line_from_points(x, z)
        except DegenerateInput:
            continue
        assert incidence(p, q) == 0          # meet at x
        assert plucker_quadric(p) == 0
        assert isinstance(incidence(p, q), Fraction)


def test_degenerate_inputs_raise():
    with pytest.raises(DegenerateInput):
        line_from_points(np.zeros(4), np.array([1.0, 0, 0, 0]))
    with pytest.raises(DegenerateInput):
        meet_point(vec([1.0, 0, 0, 0, 0, 0]), np.array([0.0, 0, 1, 0]))
    # meet of a plane containing the line is not a point
    p = vec([1.0, 0, 0, 0, 0, 0])            # span(e0,e1)
    with pytest.raises(DegenerateInput):
        meet_point(p, np.array([0.0, 0, 0, 1]))


# --- scale-free residuals, of one vector or a stack --------------------------

# the line through (1:2:3:1) and (2:-1:1:1)
_P = line_from_points(np.array([1.0, 2, 3, 1]), np.array([2.0, -1, 1, 1]))


def _exact(v, scale=1):
    return np.array([Fraction(x) * scale for x in v], dtype=object)


def test_exact_point_is_unitized_at_any_scale():
    """An exact point against a float line is judged at unit norm, as the
    float point is: 10^9 (1:2:3:1) lies on the line, and 10^-12 (1:2:3:1)
    does not lie on a line moved by 1e-3 away from it."""
    x = np.array([1, 2, 3, 1])
    big = _exact(x, 10 ** 9)
    assert point_line_residual(big, _P) <= 1e-15
    q = _P + 1e-3 * np.eye(6)[5]
    tiny = _exact(x, Fraction(1, 10 ** 12))
    far = point_line_residual(x.astype(float), q)
    assert far > 1e-5
    assert point_line_residual(tiny, q) == pytest.approx(far, rel=1e-12)


def test_exact_point_beyond_the_float_range_against_a_float_line():
    """An exact point is scaled by its largest coordinate before it meets
    a float line: 10^400 (1:1:0:0) lies on e0 v e1, with residual 0."""
    x = vec([10 ** 400, 10 ** 400, 0, 0], exact=True)
    p = line_from_points(np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]))
    assert point_line_residual(x, p) == 0.0
    assert plane_line_residual(vec([0, 0, 10 ** 400, 0], exact=True),
                               p) <= DEFAULT_TOL


def _on_line(x, p):
    """Exact incidence of an exact point and line."""
    return bool(np.all(np.matvec(primal_matrix(p), x) == 0))


def _in_plane(u, p):
    """Exact incidence of an exact plane and line."""
    return bool(np.all(dual_matrix(p) @ u == 0))


def test_exact_point_and_plane_against_an_exact_line():
    """Both inputs exact: decided by exact zero tests, also at 10^400,
    where a point or a plane 10^-400 off the line would round onto it."""
    big = 10 ** 400
    p = vec([big, 0, 0, 0, 0, 0], exact=True)      # e0 v e1
    assert _on_line(vec([big, big + 1, 0, 0], exact=True), p)
    assert not _on_line(vec([big, big, 1, 0], exact=True), p)
    assert _in_plane(vec([0, 0, big, 1], exact=True), p)
    assert not _in_plane(vec([1, 0, big, 0], exact=True), p)
    q = line_from_points(vec([1, 2, 3, 1], exact=True),
                         vec([2, -1, 1, 1], exact=True))
    assert _on_line(vec([3, 1, 4, 2], exact=True), q)
    assert not _on_line(vec([3, 1, 4, 3], exact=True), q)
    assert _in_plane(join_plane(q, vec([0, 0, 0, 1], exact=True)), q)
    assert not _in_plane(vec([1, 0, 0, 0], exact=True), q)


def test_exact_plane_is_unitized_at_any_scale():
    # the plane x2 + x3 = 0 does not contain the line e2 v e3
    plane = _exact([0, 0, 1, 1], Fraction(1, 10 ** 12))
    line = np.eye(6)[5]
    assert plane_line_residual(plane, line) == pytest.approx(1.0)


@pytest.mark.parametrize("e", [-6, 0, 6, 400])
def test_exact_non_line_residual_is_free_of_scale(e):
    """k (e0 v e1 + e2 v e3) is no line at any k = 10^e: its residual is
    that of the unit vector, 1/2, not k^2."""
    k = Fraction(10) ** e
    assert line_residual(_exact([k, 0, 0, 0, 0, k])) == pytest.approx(0.5)


def test_float_residuals_survive_huge_coordinates():
    """A float row whose squares overflow is unitized by a power of two
    first, alone as in a stack."""
    x = np.array([5.0, -7, 1, 2])
    want = point_line_residual(x, _P)
    assert want == pytest.approx(0.199, abs=1e-3)
    assert point_line_residual(1e200 * x, _P) == want
    assert point_line_residual((1e200 * x)[None], _P[None])[0] == want
    huge = np.array([1e200, 0, 0, 0, 0, 1e200])
    assert line_residual(huge) == pytest.approx(0.5)


def test_join_of_points_whose_squares_leave_the_float_range():
    """The join of (1e200:0:0:0) or (1e-200:0:0:0) with (1:1:0:0) is the
    line e0 v e1, with no warning: the norms of its zero test do not
    overflow to inf or underflow to 0."""
    y = np.array([1.0, 1, 0, 0])
    for s in (1e200, 1e-200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = line_from_points(np.array([s, 0, 0, 0]), y)
        assert p.tolist() == [s, 0, 0, 0, 0, 0]
        assert norm(p) == s


_SMALL = st.lists(st.integers(-9, 9), min_size=4, max_size=4).filter(any)


def _relations(rows, exact):
    """Each residual function with its stacks of arguments, one row per
    drawn row: the relation holds when ``meet`` is set, and is generic
    otherwise."""
    cast = _exact if exact else (lambda v: np.array(v, dtype=float))
    pts, lines, planes, others, quads = [], [], [], [], []
    for x, y, z, w, meet in rows:
        x, y, z, w = map(cast, (x, y, z, w))
        p = wedge(x, y)
        pts.append(x if meet else w)
        lines.append(p)
        planes.append(primal_matrix(p) @ (z if meet else w))
        others.append(wedge(x if meet else w, z))
        quads.append(p if meet else np.concatenate([x, y[:2]]))
    stack = lambda a: np.array(a, dtype=object if exact else float)
    P = stack(lines)
    return [(point_line_residual, (stack(pts), P)),
            (plane_line_residual, (stack(planes), P)),
            (incidence_residual, (P, stack(others))),
            (line_residual, (stack(quads),))]


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.lists(st.tuples(_SMALL, _SMALL, _SMALL, _SMALL, st.booleans()),
                min_size=1, max_size=5),
       st.lists(st.integers(-6, 6), min_size=2, max_size=2),
       st.booleans())
def test_residual_of_one_row_equals_its_row_of_the_stack_at_any_scale(
        rows, powers, exact):
    """Each residual of one vector equals its row of the stacked call, bit
    for bit, and rescaling any input by 10^k, k in [-6, 6], keeps its
    verdict against DEFAULT_TOL, for floats and for Fractions."""
    relations = _relations(rows, exact)
    for _, args in relations:
        assume(all(np.all(np.any(a != 0, axis=-1)) for a in args))
    for f, args in relations:
        stacked = f(*args)
        for i in range(len(rows)):
            single = f(*(a[i] for a in args))
            assert np.float64(single).tobytes() == stacked[i].tobytes(), f
        scales = [Fraction(10) ** k if exact else 10.0 ** k for k in powers]
        moved = f(*(a * lam for a, lam in zip(args, scales)))
        np.testing.assert_array_equal(moved <= DEFAULT_TOL,
                                      stacked <= DEFAULT_TOL, err_msg=str(f))
