"""Acceptance suite: one test per numbered acceptance criterion.

Each test exercises a package-level guarantee end to end at its stated
tolerance and prints a single summary line; run with ``pytest -v`` to see
one pass/fail line per criterion.  Criteria that would require a symbolic
algebra engine are present as explicit skips so coverage accounting stays
visible.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import comb, inf

import numpy as np
import pytest

from conftest import (ELLIPSOID_FOCI, ellipsoid_point, five_baseline_fixture,
                      forward_tuple, lines_through, rand_line,
                      rand_mixed_rig, rand_pinhole, rand_point,
                      rand_pushbroom, rand_twisted_cubic,
                      rand_twoslit, rational_lines_through)
from gvcam import cli, concurrency, multiimage
from gvcam.cameras import (TwistedCubic, TwoSlit, congruence_residual,
                           pushbroom_infinity_slit, reference_type3,
                           reference_type4, secant_system)
from gvcam.cameras import PanoramicNC, PanoramicStereo
from gvcam.catadioptric import (panoramic_fibers, point_line_residual,
                                reference_ellipsoid, reflect_line,
                                specular_pair)
from gvcam.errors import FocalPoint
from gvcam.numeric import norm, projective_distance, unitize
from gvcam.plucker import (incidence, line_from_points, plucker_quadric,
                           primal_matrix)
from gvcam.tensors import (fundamental_matrix, mixed_epipolar_tensor,
                           mixed_residual, quadrifocal_residual,
                           quadrifocal_tensor, sextic_relative)
from test_multiimage import (TORIC_BINOMIALS, TORIC_VANISHING,
                             coordinate_slit_rig)


def proj(a):
    return unitize(np.asarray(a, float))


def line_meets_camera_residual(cam, line):
    """Normalized incidence of a (possibly complex) line with the focal
    lines / points of a linear camera."""
    line = np.asarray(line)
    scale = norm(line)
    if cam.kind == "pinhole":
        c = np.asarray(cam.center, float).astype(line.dtype)
        return norm(primal_matrix(line) @ c) / (scale * norm(c))
    worst = 0.0
    for slit in (cam.slit1, cam.slit2):
        s = np.asarray(slit, float).astype(line.dtype)
        worst = max(worst, abs(incidence(line, s)) / (scale * norm(s)))
    return worst


# ---------------------------------------------------------------------------


def test_criterion_01_generator_vanishing_on_concurrent_tuples():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (2, 3, 4, 5):
        for _ in range(100):
            lines, _ = lines_through(rng, n)
            rep = concurrency.evaluate_generators(lines)
            kinds = [name.split("[")[0] for name in rep.names]
            assert kinds.count("quadric") == comb(n + 1, 2)
            assert kinds.count("cubic") == 10 * comb(n, 3)
            worst = max(worst, concurrency.worst_of_stack(
                np.array([lines]))[1][0])
    assert worst <= 1e-9
    for n in (2, 3, 4, 5):
        for _ in range(3):
            lines, _ = rational_lines_through(rng, n)
            rep = concurrency.evaluate_generators(lines)
            assert all(v == 0 for v in rep.values)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print("criterion 01 PASS — max normalized generator residual %.2e over "
          "400 float tuples (n=2..5); exact tuples identically zero; "
          "%.2fs" % (worst, elapsed))


def test_criterion_02_incidence_plus_trilinear_criterion_matches_rank():
    rng = np.random.default_rng(102)
    E = np.eye(4)

    def algebraic_residual(lines):
        worst = 0.0
        for p, q in combinations(lines, 2):
            worst = max(worst, abs(incidence(p, q)) / (norm(p) * norm(q)))
        p, q, r = lines
        scale = norm(p) * norm(q) * norm(r)
        for u in E:
            t = concurrency.trilinear_transversal(p, q, r, u)
            worst = max(worst, abs(complex(t)) / scale)
        return worst

    def rank_concurrent(lines):
        stacked = np.vstack([primal_matrix(proj(p)) for p in lines])
        s = np.linalg.svd(stacked, compute_uv=False)
        return s[3] <= 1e-9 * s[0]

    checked = skipped = 0
    while checked < 500:
        kind = checked % 2
        if kind == 0:
            lines, _ = lines_through(rng, 3)
        else:
            a, b, c = (rand_point(rng) for _ in range(3))
            lines = [line_from_points(a, b), line_from_points(b, c),
                     line_from_points(c, a)] if checked % 4 == 1 else \
                [rand_line(rng) for _ in range(3)]
        residual = algebraic_residual(lines)
        if 1e-11 < residual < 1e-7:
            skipped += 1  # numerically undecided: not a clean test case
            continue
        assert (residual <= 1e-11) == rank_concurrent(lines)
        checked += 1
    print("criterion 02 PASS — incidence+trilinear decision matched the "
          "rank test on %d/%d triples (%d borderline draws resampled)"
          % (checked, checked, skipped))


def test_criterion_03_multidegree_terms(capsys):
    t0 = time.perf_counter()
    rc = cli.main(["multidegree", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    import json
    row = json.loads(out)["results"][0]
    # expected: all arrangements of exponents (3,3,2,1) with weight 4 and
    # (3,2,2,2) with weight 8, written t1..t4
    expected = set()
    for perm in set(__import__("itertools").permutations((3, 3, 2, 1))):
        expected.add((4, perm))
    for perm in set(__import__("itertools").permutations((3, 2, 2, 2))):
        expected.add((8, perm))

    def parse_term(text):
        coeff, _, mono = text.partition("*")
        expo = [0, 0, 0, 0]
        for factor in mono.split("*"):
            name, _, power = factor.partition("^")
            expo[int(name[1]) - 1] = int(power or 1)
        return int(coeff), tuple(expo)

    got = {parse_term(t) for t in row["terms"]}
    assert got == expected and len(row["terms"]) == 16
    assert row["coefficient_sum"] == 80
    for n in range(2, 11):
        poly = concurrency.multidegree(n)
        assert poly.coefficient_sum == 8 * comb(n + 1, 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("criterion 03 PASS — n=4 term table reproduced exactly "
          "(16 terms, coefficient sum 80); sums match 8*C(n+1,3) for "
          "n=2..10; %.2fs" % elapsed)


def test_criterion_04_camera_catalog_round_trip():
    rng = np.random.default_rng(104)
    catalog = [
        ("pinhole", rand_pinhole(rng)),
        ("two_slit", rand_twoslit(rng)),
        ("pushbroom", rand_pushbroom(rng)),
        ("twisted_cubic", TwistedCubic()),
        ("twisted_cubic_moved", rand_twisted_cubic(rng)),
        ("order_one_cubic_curve", reference_type3()),
        ("order_one_conic_pair", reference_type4()),
    ]
    for label, cam in catalog:
        hits = 0
        while hits < 100:
            x = rand_point(rng)
            try:
                line = cam.project(x)
            except FocalPoint:
                continue
            if norm(line) < 1e-8:
                continue
            on = norm(primal_matrix(proj(line)) @ proj(x))
            assert on <= 1e-9, "%s: point not on its viewing line" % label
            assert congruence_residual(cam, line) <= 1e-9, label
            hits += 1
    # the linear-slit camera with one slit at infinity is the two-slit
    # camera with the stationary-direction slit
    worst = 0.0
    for _ in range(100):
        broom = rand_pushbroom(rng)
        twin = TwoSlit(broom.slit, pushbroom_infinity_slit(broom.slit))
        x = rand_point(rng)
        try:
            a, b = broom.project(x), twin.project(x)
        except FocalPoint:
            continue
        worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-12
    print("criterion 04 PASS — 7 camera types x 100 points contained in "
          "their viewing lines with residual <= 1e-9; slit-at-infinity "
          "agreement max deviation %.1e" % worst)


def test_criterion_05_secant_linear_system_rank_and_nullvector():
    rng = np.random.default_rng(105)
    cam = TwistedCubic()
    worst_ratio, worst_dist = inf, 0.0
    for _ in range(100):
        x = rand_point(rng)
        try:
            line = cam.project(x)
        except FocalPoint:
            continue
        M = np.asarray(secant_system(x), float)
        s = np.linalg.svd(M, compute_uv=False)
        ratio = s[4] / max(s[5], 1e-300)
        assert ratio > 1e6
        worst_ratio = min(worst_ratio, ratio)
        null = np.linalg.svd(M)[2][-1]
        d = projective_distance(proj(null), proj(line))
        assert d <= 1e-9
        worst_dist = max(worst_dist, d)
    print("criterion 05 PASS — 6x6 secant system numerically rank 5 "
          "(min sigma5/sigma6 %.1e) and nullvector matches the projection "
          "(max projective distance %.1e)" % (worst_ratio, worst_dist))


def test_criterion_06_correspondence_accept_reject_1000_trials():
    rng = np.random.default_rng(106)
    failures = trials = 0
    for size in (2, 3, 4, 5):
        for _ in range(10):
            rig = rand_mixed_rig(rng, size)
            for _ in range(25):
                trials += 1
                x, lines = forward_tuple(rng, rig)
                point = multiimage.correspond(rig.cameras, lines)
                if point is None or projective_distance(
                        proj(point), proj(x)) > 1e-8:
                    failures += 1
                    continue
                k = int(rng.integers(0, size))
                while True:
                    y, wrong = forward_tuple(rng, rig)
                    if projective_distance(proj(y), proj(x)) > 1e-3:
                        break
                substituted = list(lines)
                substituted[k] = wrong[k]
                if multiimage.correspond(rig.cameras, substituted) is not None:
                    failures += 1
    assert trials == 1000 and failures == 0
    print("criterion 06 PASS — 1000 accept+reject trials on mixed rigs of "
          "2-5 cameras, zero failures")


def test_criterion_07_pairwise_baseline_counts():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(50):
        c1, c2 = rand_pinhole(rng), rand_pinhole(rng)
        if projective_distance(proj(c1.center), proj(c2.center)) < 1e-3:
            continue
        found = multiimage.baselines_linear(c1, c2)
        assert len(found) == 1
        for t in found:
            worst = max(worst, line_meets_camera_residual(c1, t.line),
                        line_meets_camera_residual(c2, t.line))
    for _ in range(50):
        c1, c2 = rand_pinhole(rng), rand_twoslit(rng)
        found = multiimage.baselines_linear(c1, c2)
        assert len(found) == 1
        for t in found:
            worst = max(worst, line_meets_camera_residual(c1, t.line),
                        line_meets_camera_residual(c2, t.line))
    for _ in range(50):
        c1, c2 = rand_twoslit(rng), rand_twoslit(rng)
        found = multiimage.baselines_linear(c1, c2)
        assert sum(t.multiplicity for t in found) == 2
        for t in found:
            worst = max(worst, line_meets_camera_residual(c1, t.line),
                        line_meets_camera_residual(c2, t.line))
    assert worst <= 1e-9
    print("criterion 07 PASS — baseline counts 1/1/2 on 50 random rigs per "
          "pair type; max incidence residual %.1e" % worst)


def test_criterion_08_five_baseline_fixture():
    fx = five_baseline_fixture()
    found = fx.baselines()
    assert len(found) == 5
    b = proj(np.real(found[0].line))
    assert projective_distance(
        b, proj(np.array([0., 1, 1, 1, 1, 0]))) <= 1e-12
    for values in (fx.cam1.generator_values(b), fx.cam2.generator_values(b)):
        assert max(abs(complex(v)) for v in values) <= 1e-9
    for t in found[1:]:
        a = complex(t.parameter[0])
        assert abs(5 * a ** 4 - 2 * a ** 2 + 1) <= 1e-10
        line = np.asarray(t.line)
        scale = norm(line) ** 2
        for values in (fx.cam1.generator_values(line),
                       fx.cam2.generator_values(line)):
            assert max(abs(complex(v)) for v in values) <= 1e-8 * max(
                scale, 1.0)
    # the remaining quartic 5a^4 - 2a^2 + 1 has negative discriminant in
    # a^2, so its four parameter roots form two complex-conjugate pairs:
    # the measured real count stays 1 however the roots are refined
    measured = fx.real_count()
    assert measured == 1
    print("criterion 08 PASS — 5 baselines; the rational one annihilates "
          "both degree-two ideals to 1e-9; quartic residuals <= 1e-10; "
          "measured real baseline count = %d (sole real line)" % measured)


def test_criterion_09_coordinate_two_slit_rig_binomials():
    rng = np.random.default_rng(109)
    rig = coordinate_slit_rig()
    worst = 0.0
    for _ in range(100):
        x = rand_point(rng)
        p, q, r = (proj(cam.project(x)) for cam in rig)
        for coord in TORIC_VANISHING:
            worst = max(worst, abs(coord(p, q, r)))
        for binom in TORIC_BINOMIALS:
            worst = max(worst, abs(binom(p, q, r)))
    assert worst <= 1e-9
    print("criterion 09 PASS — all 16 binomials + 6 vanishing coordinates "
          "<= 1e-9 on 100 random points (max %.1e)" % worst)


def test_criterion_10_linear_generator_count_formulas():
    checked = 0
    for n1 in range(0, 7):
        for n2 in range(0, 7 - n1):
            if n1 + n2 == 0:
                continue
            got = multiimage.linear_generator_counts(n1, n2)
            assert got.linear == 3 * n1 + 2 * n2
            assert got.quadratic == comb(n1 + n2, 2) + n2
            assert got.cubic == (comb(n1, 3) + 3 * comb(n1, 2) * n2
                                 + 6 * n1 * comb(n2, 2) + 10 * comb(n2, 3))
            checked += 1
    # classical single-family cross-check: no extra quadrics, C(n,2)
    # bilinear and C(n,3) trilinear constraints
    for n in range(1, 7):
        got = multiimage.linear_generator_counts(n, 0)
        assert (got.linear, got.quadratic, got.cubic) == (
            3 * n, comb(n, 2), comb(n, 3))
    print("criterion 10 PASS — generator-count formulas verified for all "
          "%d pairs with n1+n2 <= 6 including the classical column" % checked)


def test_criterion_11_multifocal_tensor_identities():
    rng = np.random.default_rng(111)

    def mat(rows):
        while True:
            m = rng.standard_normal((rows, 4))
            if np.linalg.svd(m, compute_uv=False)[-1] > 1e-2:
                return m

    worst_det = worst_epi = 0.0
    for _ in range(100):
        A, B = mat(3), mat(3)
        F = fundamental_matrix(A, B)
        worst_det = max(worst_det, abs(np.linalg.det(F)) / norm(F) ** 3)
        X = rng.standard_normal((4, 100))
        U, V = A @ X, B @ X
        vals = np.abs(np.einsum("ik,ij,jk->k", V, F, U))
        scale = norm(F) * np.linalg.norm(U, axis=0) * np.linalg.norm(V,
                                                                     axis=0)
        worst_epi = max(worst_epi, float(np.max(vals / scale)))
    assert worst_det <= 1e-10 and worst_epi <= 1e-10

    # A scrambled tuple whose back-projections still nearly concur is
    # geometrically indistinguishable from a correspondence, so scrambles
    # are resampled until the stacked back-projection system is rank-margin
    # inconsistent; on those the residual forms must separate cleanly.
    def plane_row(m, w):
        return w[1] * m[0] - w[0] * m[1]

    def cross_rows(P, u):
        K = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]],
                      [-u[1], u[0], 0.0]])
        return list(K @ P)

    def inconsistent(rows):
        rows = np.vstack([r / max(np.linalg.norm(r), 1e-300) for r in rows])
        s = np.linalg.svd(rows, compute_uv=False)
        return s[3] / s[0] > 0.05

    min_sep = inf
    trials = 0
    while trials < 1000:
        x = rand_point(rng)
        if trials % 2 == 0:
            mats = [mat(2) for _ in range(4)]
            T = quadrifocal_tensor(*mats)
            images = [m @ x for m in mats]
            assert quadrifocal_residual(T, *images) <= 1e-10
            k = trials % 4
            images[k] = mats[k] @ rand_point(rng)
            if not inconsistent([plane_row(m, w)
                                 for m, w in zip(mats, images)]):
                continue  # redraw the whole configuration
            sep = quadrifocal_residual(T, *images)
        else:
            P, A, B = mat(3), mat(2), mat(2)
            T = mixed_epipolar_tensor(P, A, B)
            assert mixed_residual(T, P @ x, A @ x, B @ x) <= 1e-10
            if trials % 4 == 1:
                u, v, w = P @ rand_point(rng), A @ x, B @ x
            else:
                u, v, w = P @ x, A @ rand_point(rng), B @ x
            if not inconsistent(cross_rows(P, u)
                                + [plane_row(A, v), plane_row(B, w)]):
                continue
            sep = mixed_residual(T, u, v, w)
        assert sep > 1e-4
        min_sep = min(min_sep, sep)
        trials += 1

    worst_cam = 0.0
    min_rand = inf
    for _ in range(100):
        worst_cam = max(worst_cam,
                        sextic_relative(mixed_epipolar_tensor(mat(3), mat(2),
                                                              mat(2))))
        min_rand = min(min_rand, sextic_relative(rng.standard_normal((3, 2,
                                                                      2))))
    assert worst_cam <= 1e-8 and min_rand > 1e-3
    print("criterion 11 PASS — det(F)/||F||^3 <= %.1e, epipolar <= %.1e "
          "(100x100); 1000 scrambled tuples separated (min %.1e); sextic "
          "<= %.1e on cameras, >= %.1e on random tensors"
          % (worst_det, worst_epi, min_sep, worst_cam, min_rand))


def test_criterion_12_mirror_geometry():
    rng = np.random.default_rng(112)
    S = reference_ellipsoid()
    f_plus, f_minus = ELLIPSOID_FOCI
    worst = 0.0
    hits = 0
    while hits < 50:
        theta = rng.uniform(0.15, np.pi - 0.15)
        phi = rng.uniform(0, 2 * np.pi)
        x = ellipsoid_point(theta, phi)
        ray = line_from_points(f_plus, x)
        reflected = specular_pair(S, x, ray)
        worst = max(worst, point_line_residual(f_minus, reflected))
        hits += 1
    assert worst <= 1e-8

    # exact involution and incidence scaling across rational planes
    for _ in range(10):
        H = np.array([Fraction(int(v)) for v in rng.integers(-4, 5, 4)],
                     dtype=object)
        s = H[1] ** 2 + H[2] ** 2 + H[3] ** 2
        if s == 0:
            continue
        p, _ = rational_lines_through(rng, 1)
        q, _ = rational_lines_through(rng, 1)
        p, q = p[0], q[0]
        assert all(reflect_line(H, reflect_line(H, p))[i] == s ** 4 * p[i]
                   for i in range(6))
        assert incidence(reflect_line(H, p), reflect_line(H, q)) == \
            -s ** 4 * incidence(p, q)
        assert plucker_quadric(reflect_line(H, p)) == 0

    for cam in (PanoramicNC(), PanoramicStereo()):
        hits = 0
        while hits < 100:
            x = rand_point(rng)
            if cam.focal_residual(proj(x)) < 1e-4:
                continue
            fibers = panoramic_fibers(cam, x)
            assert len(fibers) == 2
            for f in fibers:
                assert cam.congruence_residual(f) <= 1e-8
            hits += 1
    print("criterion 12 PASS — 50 focus rays re-converge (max residual "
          "%.1e); rational reflections exactly involutive and incidence-"
          "scaling; panoramic cameras return 2 annihilating lines on "
          "100 points each" % worst)


def test_criterion_13a_groebner_basis_certification_out_of_scope():
    pytest.skip(
        "certifying that the reduced degree-compatible Groebner basis of "
        "the n-camera concurrency ideal consists of C(n+1,2) quadrics, "
        "12*C(n,3) cubics and 4*C(n+1,4) quartics with squarefree leading "
        "terms (hence a radical initial ideal) requires a symbolic "
        "Groebner engine; the closed-form counts themselves are asserted "
        "in test_concurrency.py::test_generator_count_table")


def test_criterion_13b_initial_monomial_ideal_out_of_scope():
    pytest.skip(
        "the explicit 22-generator squarefree initial monomial ideal of "
        "the three-camera correspondence ideal in reverse-lexicographic "
        "order needs symbolic elimination; its numerical shadow (the 16 "
        "binomials plus 6 vanishing coordinates) is fully checked in "
        "criterion 09")


def test_criterion_13c_mirror_variety_bidegrees_out_of_scope():
    pytest.skip(
        "the mirror-variety multidegree with coefficient row (4, 12, 18, "
        "12, 4) and the specular congruence bidegrees (8, 4) and (12, 6) "
        "for the reference ellipsoid require multigraded elimination over "
        "a function field; no numerical certificate is implemented, so "
        "they are recorded here as out of scope")
