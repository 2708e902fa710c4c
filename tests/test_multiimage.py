"""Multi-camera correspondence, triangulation, epipolar geometry,
baselines, and the five-baseline reference configuration."""

import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gvcam.cameras import (FocalPoint, Pinhole, TwoSlit, congruence_residual,
                           reference_type3)
from gvcam.concurrency import find_common_point
from gvcam.errors import (AmbiguousPencil, DegenerateConfiguration,
                          DegenerateInput, InvalidN)
from gvcam.multiimage import (CameraRig, FocalOverlapWarning, Transversal,
                              baseline_count, baselines_linear,
                              common_transversals, correspond,
                              epipolar_degree, epipolar_residual,
                              linear_generator_counts,
                              triangulate)
from gvcam.numeric import norm, unitize, vec
from gvcam.plucker import (incidence, line_from_points, plucker_quadric,
                           point_line_residual, point_on_line,
                           points_on_line)
from conftest import (assert_proj_close, five_baseline_fixture,
                      forward_tuple, lines_through, rand_line,
                      rand_mixed_rig, rand_pinhole, rand_point,
                      rand_skew_pair, rand_twoslit)

E = np.eye(4)

# Frozen oracle: the binomial ideal of the toric correspondence component
# for the three coordinate-slit cameras, plus the six vanishing
# coordinates (the per-camera incidence conditions).  Each entry maps
# (p, q, r) to one generator value.
TORIC_BINOMIALS = [
    lambda p, q, r: p[2] * p[3] - p[1] * p[4],
    lambda p, q, r: q[2] * q[3] + q[0] * q[5],
    lambda p, q, r: r[1] * r[4] - r[0] * r[5],
    lambda p, q, r: p[2] * q[3] + p[3] * q[2],
    lambda p, q, r: p[4] * r[1] + p[1] * r[4],
    lambda p, q, r: q[5] * r[0] + q[0] * r[5],
    lambda p, q, r: p[3] * q[5] * r[4] + p[4] * q[3] * r[5],
    lambda p, q, r: p[1] * q[5] * r[4] + p[2] * q[3] * r[5],
    lambda p, q, r: p[2] * q[3] * r[4] + p[4] * q[0] * r[5],
    lambda p, q, r: p[1] * q[3] * r[4] + p[3] * q[0] * r[5],
    lambda p, q, r: p[1] * q[2] * r[4] - p[2] * q[0] * r[5],
    lambda p, q, r: p[2] * q[5] * r[1] + p[1] * q[2] * r[5],
    lambda p, q, r: p[2] * q[3] * r[1] - p[1] * q[0] * r[5],
    lambda p, q, r: p[2] * q[3] * r[0] - p[1] * q[0] * r[4],
    lambda p, q, r: p[1] * q[3] * r[0] + p[3] * q[0] * r[1],
    lambda p, q, r: p[4] * q[2] * r[0] + p[2] * q[0] * r[4],
]
TORIC_VANISHING = [
    lambda p, q, r: p[0], lambda p, q, r: p[5],
    lambda p, q, r: q[1], lambda p, q, r: q[4],
    lambda p, q, r: r[2], lambda p, q, r: r[3],
]


def coordinate_slit_rig():
    return (TwoSlit(line_from_points(E[0], E[1]), line_from_points(E[2], E[3])),
            TwoSlit(line_from_points(E[0], E[2]), line_from_points(E[1], E[3])),
            TwoSlit(line_from_points(E[0], E[3]), line_from_points(E[1], E[2])))


def test_round_trip_rigs_of_each_size():
    rng = np.random.default_rng(401)
    for size in (2, 3, 4, 5):
        rig = rand_mixed_rig(rng, size)
        assert rig.focal_warnings == ()
        for _ in range(10):
            x, lines = forward_tuple(rng, rig)
            y = correspond(rig, lines)
            assert y is not None
            assert_proj_close(y, x, 1e-8)


def test_substituted_line_rejected():
    rng = np.random.default_rng(402)
    rig = rand_mixed_rig(rng, 3)
    for _ in range(20):
        x, lines = forward_tuple(rng, rig)
        z, other = forward_tuple(rng, rig)
        k = int(rng.integers(0, len(lines)))
        tampered = list(lines)
        tampered[k] = other[k]
        assert correspond(rig, tampered) is None


def test_correspond_requires_two_lines():
    rng = np.random.default_rng(403)
    rig = rand_mixed_rig(rng, 2)
    with pytest.raises(InvalidN):
        correspond(rig, [rand_line(rng)])


def _same_point(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and a.tobytes() == b.tobytes())


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(st.sampled_from((2, 3, 5)), st.integers(0, 2 ** 32 - 1))
def test_stacked_decisions_equal_per_tuple(n, seed):
    """correspond, find_common_point and triangulate on an (N, n, 6) stack
    give, bit for bit, the points, Nones and residuals of the tuples one
    at a time; a stack holding an ambiguous tuple raises AmbiguousPencil
    as the tuple alone does."""
    rng = np.random.default_rng(seed)
    rig = rand_mixed_rig(rng, n)
    tuples = []
    for k in range(12):
        _, lines = forward_tuple(rng, rig)
        j = int(rng.integers(n))
        if k % 4 == 1:                      # another point's image
            lines[j] = forward_tuple(rng, rig)[1][j]
        elif k % 4 == 2:                    # not in the congruence
            lines[j] = rand_line(rng)
        elif k % 4 == 3:                    # noise around the tolerance
            lines = [p + rng.standard_normal(6) * 10.0 ** rng.uniform(-11, -7)
                     for p in lines]
        tuples.append(lines)
    stack = np.array(tuples)
    points, residuals = correspond(rig, stack)
    common = find_common_point(stack)
    assert residuals.shape == (len(tuples), n)
    for k, lines in enumerate(tuples):
        assert _same_point(points[k], correspond(rig, lines))
        assert _same_point(common[k], find_common_point(lines))
        assert residuals[k].tolist() == [
            congruence_residual(cam, p) for cam, p in zip(rig.cameras, lines)]
        # a tuple is a stack of one
        (point,), one_residuals = correspond(rig, stack[k:k + 1])
        assert _same_point(point, points[k])
        assert one_residuals.tolist() == [residuals[k].tolist()]
        assert _same_point(find_common_point(stack[k:k + 1])[0], common[k])
    res = triangulate(rig, stack)
    for k, lines in enumerate(tuples):
        one = triangulate(rig, lines)
        assert res.point[k].tobytes() == one.point.tobytes()
        assert res.residual[k] == one.residual
        one = triangulate(rig, stack[k:k + 1])
        assert one.point.tobytes() == res.point[k:k + 1].tobytes()
    assert sum(x is not None for x in points) >= 3
    repeated = [tuples[0][0]] * n
    for fn in (find_common_point, lambda t: triangulate(rig, t)):
        with pytest.raises(AmbiguousPencil):
            fn(repeated)
        with pytest.raises(AmbiguousPencil):
            fn(np.array(tuples[:3] + [repeated] + tuples[3:]))


def test_mixed_tuple_is_decided_at_unit_scale():
    """A Fraction line in a tuple of float lines counts at unit scale:
    scaled by 1e-12, it still misses the common point (1:0:0:0) of the
    other two lines."""
    cams = [Pinhole(E[1]), Pinhole(E[2]), Pinhole(E[3])]
    off = line_from_points(E[3], np.array([0., 1, 1, 0]))   # misses E[0]
    tiny = vec([Fraction(v) for v in off], exact=True) * Fraction(1, 10 ** 12)
    lines = [line_from_points(E[1], E[0]), line_from_points(E[2], E[0]), tiny]
    assert find_common_point(lines) is None
    assert correspond(cams, lines) is None


def test_long_stacks_go_through_in_chunks(monkeypatch):
    """A stack longer than one SVD pass allows is split into chunks of
    tuples, with the same points and residuals."""
    from gvcam import numeric
    rng = np.random.default_rng(405)
    rig = rand_mixed_rig(rng, 4)
    tuples = []
    for k in range(9):
        _, lines = forward_tuple(rng, rig)
        if k % 3 == 1:
            lines[0] = forward_tuple(rng, rig)[1][0]
        tuples.append(lines)
    stack = np.array(tuples)
    whole = correspond(rig, stack)[0], triangulate(rig, stack)
    monkeypatch.setattr(numeric, "SVD_BUDGET", 900)     # 2 or 3 a pass
    chunked = correspond(rig, stack)[0], triangulate(rig, stack)
    assert all(map(_same_point, whole[0], chunked[0]))
    assert sum(x is None for x in chunked[0]) == 3
    assert whole[1].point.tobytes() == chunked[1].point.tobytes()
    assert whole[1].residual.tobytes() == chunked[1].residual.tobytes()


def test_stacked_correspond_raises_on_ambiguous_tuple():
    """Two pinholes see their baseline twice: the tuple passes both
    congruences and has no unique common point, alone or in a stack."""
    rig = [Pinhole(vec([1.0, 0, 0, 0])), Pinhole(vec([1.0, 1, 0, 0]))]
    baseline = line_from_points(vec([1.0, 0, 0, 0]), vec([1.0, 1, 0, 0]))
    x = vec([1.0, 2, 3, 4])
    good = [line_from_points(c.center, x) for c in rig]
    with pytest.raises(AmbiguousPencil):
        correspond(rig, [baseline, baseline])
    points, _ = correspond(rig, np.array([good]))
    assert_proj_close(points[0], x, 1e-12)
    with pytest.raises(AmbiguousPencil):
        correspond(rig, np.array([good, [baseline, 2 * baseline]]))


def test_triangulate_residuals_and_recovery():
    rng = np.random.default_rng(404)
    rig = rand_mixed_rig(rng, 4)
    for _ in range(10):
        x, lines = forward_tuple(rng, rig)
        res = triangulate(rig, lines)
        assert res.residual <= 1e-10
        assert_proj_close(res.point, x, 1e-8)


def test_focal_overlap_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rig = CameraRig([Pinhole(E[0]),
                         TwoSlit(line_from_points(E[0], E[1]),
                                 line_from_points(E[2], E[3]))])
    assert any(issubclass(w.category, FocalOverlapWarning) for w in caught)
    assert rig.focal_warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        CameraRig([Pinhole(E[0]),
                   TwoSlit(line_from_points(E[0], E[1]),
                           line_from_points(E[2], E[3]))], warn=False)
    assert not caught


def test_epipolar_degree_and_baseline_count():
    assert epipolar_degree(0) == 1          # pinhole partner
    assert epipolar_degree(1) == 2          # two-slit partner
    assert epipolar_degree(3) == 4          # twisted-cubic partner
    assert baseline_count(0, 0) == 1
    assert baseline_count(0, 1) == 1
    assert baseline_count(1, 1) == 2
    assert baseline_count(3, 3) == 10
    assert baseline_count(2, 2) == 5        # the five-baseline fixture


def test_epipolar_residual_forward():
    rng = np.random.default_rng(405)
    cam1, cam2 = rand_twoslit(rng), rand_pinhole(rng)
    for _ in range(20):
        x = rand_point(rng)
        p, q = cam1.project(x), cam2.project(x)
        assert epipolar_residual(cam2, p, q) <= 1e-9
        assert epipolar_residual(cam1, q, p) <= 1e-9
        bad = cam2.project(rand_point(rng))
        assert epipolar_residual(cam2, p, bad) > 1e-6


def test_epipolar_correspondence_not_one_to_one():
    """Two distinct image lines in the epipolar set of p, with a partner
    line related to one of them but not the other."""
    rng = np.random.default_rng(406)
    cam1, cam2 = rand_twoslit(rng), rand_pinhole(rng)
    found = False
    for _ in range(50):
        x = rand_point(rng)
        p = cam1.project(x)
        a, b = points_on_line(p)
        try:
            q1, q2 = cam2.project(a), cam2.project(b)
        except FocalPoint:
            continue
        if epipolar_residual(cam2, p, q1) > 1e-9 or \
           epipolar_residual(cam2, p, q2) > 1e-9:
            continue
        y = points_on_line(q1)[0]
        if norm(y) < 1e-6:
            continue
        try:
            p2 = cam1.project(y)
        except FocalPoint:
            continue
        if epipolar_residual(cam1, q1, p2) <= 1e-9 and \
           epipolar_residual(cam1, q2, p2) > 1e-5:
            found = True
            break
    assert found


def test_toric_oracle_coordinate_slit_rig():
    c1, c2, c3 = coordinate_slit_rig()
    rng = np.random.default_rng(407)
    for _ in range(50):
        x = rand_point(rng)
        try:
            p = unitize(c1.project(x))
            q = unitize(c2.project(x))
            r = unitize(c3.project(x))
        except FocalPoint:
            continue
        for gen in TORIC_VANISHING + TORIC_BINOMIALS:
            assert abs(gen(p, q, r)) <= 1e-9


def test_common_transversals_two_known_lines():
    """Four lines drawn across two fixed skew lines admit exactly those
    two lines as their transversals."""
    rng = np.random.default_rng(408)
    for _ in range(10):
        L1, L2 = rand_skew_pair(rng)
        a1, b1 = points_on_line(L1)
        a2, b2 = points_on_line(L2)
        ts = rng.random((4, 2))
        crossers = [line_from_points(a1 * s + b1 * (1 - s),
                                     a2 * t + b2 * (1 - t))
                    for s, t in ts]
        found = common_transversals(*crossers)
        assert len(found) == 2
        assert all(t.is_real for t in found)
        lines = sorted((unitize(np.real(t.line)) for t in found),
                       key=lambda l: abs(incidence(l, unitize(L1))))
        assert_proj_close(lines[0], L1, 1e-7)
        assert_proj_close(lines[1], L2, 1e-7)
        for t in found:
            for c in crossers:
                assert abs(incidence(unitize(np.real(t.line)),
                                     unitize(c))) <= 1e-7


def test_common_transversals_multiplicity_sums_to_two():
    rng = np.random.default_rng(409)
    for _ in range(20):
        lines = [rand_line(rng) for _ in range(4)]
        try:
            found = common_transversals(*lines)
        except DegenerateConfiguration:
            continue
        assert sum(t.multiplicity for t in found) == 2
        for t in found:
            ln = np.asarray(t.line)
            scale = norm(ln)
            assert abs(plucker_quadric(ln)) <= 1e-7 * scale ** 2
            for c in lines:
                assert abs(incidence(ln / scale, unitize(c))) <= 1e-6


def test_common_transversals_degenerate_inputs():
    rng = np.random.default_rng(410)
    p = rand_line(rng)
    q, r, s = (rand_line(rng) for _ in range(3))
    with pytest.raises(DegenerateConfiguration):
        common_transversals(p, p, q, r)
    (l1, l2), _ = lines_through(rng, 2)        # meeting pair
    with pytest.raises(DegenerateConfiguration):
        common_transversals(l1, l2, q, s)


def test_baselines_linear_pinhole_pinhole():
    rng = np.random.default_rng(411)
    for _ in range(20):
        c1, c2 = rand_point(rng), rand_point(rng)
        got = baselines_linear(Pinhole(c1), Pinhole(c2))
        assert len(got) == 1
        line = unitize(np.real(got[0].line))
        assert got[0].is_real
        assert point_line_residual(unitize(c1), line) <= 1e-9
        assert point_line_residual(unitize(c2), line) <= 1e-9
    with pytest.raises(DegenerateConfiguration):
        baselines_linear(Pinhole(E[0]), Pinhole(2.0 * E[0]))


def test_baselines_linear_pinhole_twoslit():
    rng = np.random.default_rng(412)
    for _ in range(20):
        ph, ts = rand_pinhole(rng), rand_twoslit(rng)
        got = baselines_linear(ph, ts)
        assert len(got) == 1
        line = unitize(np.real(got[0].line))
        assert point_line_residual(unitize(ph.center), line) <= 1e-9
        assert abs(incidence(line, unitize(ts.slit1))) <= 1e-9
        assert abs(incidence(line, unitize(ts.slit2))) <= 1e-9


def test_baselines_linear_twoslit_twoslit():
    rng = np.random.default_rng(413)
    for _ in range(20):
        t1, t2 = rand_twoslit(rng), rand_twoslit(rng)
        got = baselines_linear(t1, t2)
        assert sum(t.multiplicity for t in got) == 2
        for t in got:
            ln = np.asarray(t.line)
            ln = ln / norm(ln)
            for slit in (t1.slit1, t1.slit2, t2.slit1, t2.slit2):
                assert abs(incidence(ln, unitize(slit))) <= 1e-6


def test_baselines_linear_shared_focus_degenerate():
    shared = line_from_points(E[0], E[1])
    t1 = TwoSlit(shared, line_from_points(E[2], E[3]))
    t2 = TwoSlit(shared, line_from_points(E[0] + E[2], E[1] + E[3]))
    with pytest.raises(DegenerateConfiguration):
        baselines_linear(t1, t2)


def test_linear_generator_counts_formulas():
    for n1 in range(0, 7):
        for n2 in range(0, 7 - n1):
            if n1 + n2 == 0:
                continue
            got = linear_generator_counts(n1, n2)
            assert got.linear == 3 * n1 + 2 * n2
            assert got.quadratic == comb(n1 + n2, 2) + n2
            assert got.cubic == (comb(n1, 3) + 3 * comb(n1, 2) * n2
                                 + 6 * n1 * comb(n2, 2) + 10 * comb(n2, 3))
    # classical pinhole-only values
    for n in range(2, 7):
        got = linear_generator_counts(n, 0)
        assert got.quadratic == comb(n, 2)
        assert got.cubic == comb(n, 3)


def test_five_baseline_fixture_counts_and_ideals():
    fx = five_baseline_fixture()
    lines = fx.baselines()
    assert len(lines) == 5
    b = unitize(np.asarray(fx.rational_baseline, float))
    assert_proj_close(b, np.array([0.0, 1, 1, 1, 1, 0]), 1e-12)
    assert max(abs(v) for v in fx.cam1.generator_values(b)) <= 1e-9
    assert max(abs(v) for v in fx.cam2.generator_values(b)) <= 1e-9
    for t in lines[1:]:
        a = t.parameter[0]
        assert abs(5 * a ** 4 - 2 * a ** 2 + 1) <= 1e-10
        ln = np.asarray(t.line)
        ln = ln / norm(ln)
        assert max(abs(v) for v in fx.cam1.generator_values(ln)) <= 1e-8
        assert max(abs(v) for v in fx.cam2.generator_values(ln)) <= 1e-8
    # the quartic has no real roots, so exactly the rational line is real
    assert fx.real_count() == 1


def test_five_baseline_fixture_epipolar_sample():
    fx = five_baseline_fixture()
    p = np.asarray(fx.epipolar_sample_line, float)
    assert max(abs(v) for v in fx.cam1.generator_values(unitize(p))) <= 1e-9
    hits = 0
    for y in points_on_line(p):
        try:
            q = fx.cam2.project(y)
        except (FocalPoint, DegenerateConfiguration):
            continue
        assert epipolar_residual(fx.cam2, p, q) <= 1e-8
        hits += 1
    assert hits >= 1


def test_five_baseline_congruence_projections():
    fx = five_baseline_fixture()
    rng = np.random.default_rng(414)
    done = 0
    while done < 10:
        x = rand_point(rng)
        try:
            q = fx.cam2.project(x)
        except (FocalPoint, DegenerateConfiguration):
            continue
        assert point_line_residual(unitize(x), unitize(q)) <= 1e-8
        assert max(abs(v)
                   for v in fx.cam2.generator_values(unitize(q))) <= 1e-8
        done += 1


def test_transversal_payload_shape():
    rng = np.random.default_rng(415)
    t1, t2 = rand_twoslit(rng), rand_twoslit(rng)
    for t in baselines_linear(t1, t2):
        assert isinstance(t, Transversal)
        assert t.multiplicity in (1, 2)
        assert isinstance(t.is_real, bool)
