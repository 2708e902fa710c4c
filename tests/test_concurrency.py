"""Concurrent-line ideal generators, the numeric decision rule, and the
multidegree polynomial."""

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gvcam.concurrency import (AmbiguousPencil, GeneratorReport, InvalidN,
                               PROBE_POINTS, _generators,
                               concurrent_by_generators,
                               coplanarity_cubics, cubic_generators,
                               evaluate_generators, find_common_point,
                               generator_counts, multidegree,
                               quadric_generators, trilinear_transversal,
                               worst_generators, worst_of_stack)
from gvcam.numeric import (DEFAULT_TOL, SVD_BUDGET, negligible, norm,
                           unitize, vec)
from gvcam.plucker import incidence, line_from_points, primal_matrix, wedge
from conftest import (assert_proj_close, lines_through, rand_line, rand_point,
                      rand_rational_point, rational_lines_through)

E = np.eye(4)
TRIANGLE = [line_from_points(E[0], E[1]),
            line_from_points(E[1], E[2]),
            line_from_points(E[0], E[2])]


def _values(rep, kind):
    """The values of a report whose names start with ``kind``."""
    return [v for name, v in zip(rep.names, rep.values)
            if name.startswith(kind)]


def test_probe_points_are_basis_and_pairwise_sums():
    assert len(PROBE_POINTS) == 10
    directions = [unitize(np.asarray(u, dtype=float)) for u in PROBE_POINTS]
    expect = [unitize(E[i]) for i in range(4)]
    expect += [unitize(E[i] + E[j])
               for i in range(4) for j in range(i + 1, 4)]
    for got, want in zip(directions, expect):
        np.testing.assert_allclose(got, want, atol=1e-15)


def test_soundness_float():
    rng = np.random.default_rng(201)
    for n in (2, 3, 4, 5):
        for _ in range(30):
            lines, _ = lines_through(rng, n)
            rep = evaluate_generators(lines)
            assert len(_values(rep, "quadric")) == comb(n + 1, 2)
            assert len(_values(rep, "cubic")) == 10 * comb(n, 3)
            assert rep.max_residual <= 1e-9


def test_soundness_exact():
    rng = np.random.default_rng(202)
    for n in (2, 3, 4):
        for _ in range(10):
            lines, _ = rational_lines_through(rng, n)
            rep = evaluate_generators(lines)
            assert all(v == 0 for v in _values(rep, "quadric"))
            assert all(v == 0 for v in _values(rep, "cubic"))


def test_discrimination_1000_trials():
    rng = np.random.default_rng(203)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(3, 6))
        lines, _ = lines_through(rng, n)
        bumped = []
        for p in lines:
            d = rng.standard_normal(6)
            bumped.append(unitize(p) + (2e-3 / norm(d)) * d)
        if evaluate_generators(bumped).max_residual < 1e-5:
            failures += 1
    assert failures == 0


def test_quadric_generators_counts_and_skew_pair():
    lines, _ = lines_through(np.random.default_rng(204), 3)
    rep = quadric_generators(lines)
    assert len(rep) == comb(4, 2)
    skew = quadric_generators([line_from_points(E[0], E[1]),
                               line_from_points(E[2], E[3])])
    assert any(abs(v) > 0.5 for v in skew.values())


def test_cubics_vanish_on_concurrent_triple():
    p = line_from_points(E[0], E[1])
    q = line_from_points(E[0], E[2])
    r = line_from_points(E[0], E[3])
    vals = cubic_generators(p, q, r)
    assert len(vals) == 10
    assert all(v == 0 for v in vals.values())


def test_triangle_separates_quadrics_from_cubics():
    """Pairwise-meeting coplanar lines kill every quadric but not every
    cubic; the coplanarity cubics vanish instead — and swap roles on a
    concurrent non-coplanar triple."""
    rep = evaluate_generators(TRIANGLE)
    assert all(abs(complex(v)) <= 1e-15 for v in _values(rep, "quadric"))
    assert any(abs(complex(v)) > 1e-3 for v in _values(rep, "cubic"))
    cop = coplanarity_cubics(*TRIANGLE)
    assert all(abs(complex(v)) <= 1e-15 for v in cop.values())

    rng = np.random.default_rng(205)
    (p, q, r), _ = lines_through(rng, 3)
    conc = evaluate_generators([p, q, r])
    assert conc.max_residual <= 1e-12
    cop2 = coplanarity_cubics(unitize(p), unitize(q), unitize(r))
    assert any(abs(complex(v)) > 1e-6 for v in cop2.values())


def test_trilinear_four_minors_are_multiples_of_one_form():
    """The four maximal minors of the stacked 4x3 system all equal
    (-1)^i * u_i times the same trilinear value, so any one of them (the
    canonical stable choice included) represents the transversal form."""
    from gvcam.plucker import primal_matrix
    rng = np.random.default_rng(206)
    for _ in range(40):
        p, q, r = (rand_line(rng) for _ in range(3))
        u = rand_point(rng)
        minors = trilinear_transversal(p, q, r, u, all_minors=True)
        t = trilinear_transversal(p, q, r, u)
        assert len(minors) == 4
        assert any(abs(m) == pytest.approx(abs(t), rel=1e-12)
                   for m in minors)
        cols = np.column_stack([primal_matrix(l) @ u for l in (p, q, r)])
        gauged = []
        for drop in range(4):
            if abs(u[drop]) < 1e-6:
                continue
            rows = [i for i in range(4) if i != drop]
            m = np.linalg.det(cols[rows, :])
            gauged.append((-1) ** drop * m / u[drop])
        spread = max(gauged) - min(gauged)
        assert spread <= 1e-9 * max(1.0, max(abs(g) for g in gauged))


def test_trilinear_triangle_offplane_probe_nonzero():
    # probe off the triangle's plane: the three joined planes are
    # independent exactly because the lines are not concurrent
    assert abs(trilinear_transversal(*TRIANGLE, E[3])) > 1e-6
    # probe at a triangle vertex degenerates to zero by construction
    assert abs(trilinear_transversal(*TRIANGLE, E[2])) <= 1e-15


def test_set_theoretic_equivalence_200_triples():
    rng = np.random.default_rng(207)
    tested = 0
    while tested < 200:
        if tested % 2 == 0:
            lines, _ = lines_through(rng, 3)
        else:
            lines = [rand_line(rng) for _ in range(3)]
        lines = [unitize(p) for p in lines]
        pairwise = max(abs(incidence(p, q))
                       for i, p in enumerate(lines)
                       for q in lines[i + 1:])
        trilinears = max(abs(trilinear_transversal(*lines, E[i]))
                         for i in range(4))
        algebraic = max(pairwise, trilinears) <= 1e-9
        found = find_common_point(lines) is not None
        # skip the undecided band around the threshold
        if 1e-11 < max(pairwise, trilinears) < 1e-7:
            continue
        assert algebraic == found
        tested += 1


def test_find_common_point_recovers_construction():
    rng = np.random.default_rng(208)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    lines, _ = lines_through(rng, 4, x)
    y = find_common_point(lines)
    assert y is not None
    assert_proj_close(y, x, 1e-9)


def test_find_common_point_skew_pair_none():
    assert find_common_point([line_from_points(E[0], E[1]),
                              line_from_points(E[2], E[3])]) is None


def test_find_common_point_repeated_line_ambiguous():
    p = unitize(line_from_points(E[0], E[1]))
    with pytest.raises(AmbiguousPencil):
        find_common_point([p] * 5)


def test_find_common_point_requires_two_lines():
    with pytest.raises(InvalidN):
        find_common_point([line_from_points(E[0], E[1])])


def test_concurrent_by_generators_matches_decision():
    rng = np.random.default_rng(209)
    for k in range(60):
        if k % 2 == 0:
            lines, _ = lines_through(rng, 3)
        else:
            lines = [rand_line(rng) for _ in range(3)]
        lines = [unitize(p) for p in lines]
        assert concurrent_by_generators(lines) == (
            find_common_point(lines) is not None)


def test_multidegree_n4_reference_terms():
    poly = multidegree(4)
    terms = poly.term_strings()
    assert len(terms) == 16
    assert terms[0] == "4*t1^3*t2^3*t3^2*t4"
    assert sum(1 for t in terms if t.startswith("8*")) == 4
    assert sum(1 for t in terms if t.startswith("4*")) == 12
    assert poly.coefficient_sum == 80


def test_multidegree_structure_and_sum():
    for n in range(2, 11):
        poly = multidegree(n)
        assert poly.coefficient_sum == 8 * comb(n + 1, 3)
        for expo, coeff in poly.terms.items():
            assert sum(expo) == 3 * n - 3
            assert coeff in (4, 8)
            lowered = sorted(v for v in expo if v != 3)
            assert lowered == [1, 2] if coeff == 4 else lowered == [2, 2, 2]


def test_multidegree_rejects_small_n():
    with pytest.raises(InvalidN):
        multidegree(1)


def test_generator_counts_reference_values():
    assert generator_counts(2) == ((3, 0), (3, 0, 0))
    assert generator_counts(3) == ((6, 10), (6, 12, 4))
    assert generator_counts(4)[0] == (10, 40)
    for n in range(2, 9):
        (q, c), (gq, gc, gquart) = generator_counts(n)
        assert q == gq == comb(n + 1, 2)
        assert c == 10 * comb(n, 3)
        assert gc == 12 * comb(n, 3)
        assert gquart == 4 * comb(n + 1, 4)


def test_generator_report_payload_keys():
    lines, _ = lines_through(np.random.default_rng(210), 3)
    payload = evaluate_generators(lines).payload()
    assert "quadric[0][0]" in payload and "quadric[0][1]" in payload
    assert any(k.startswith("cubic[0][1][2][") for k in payload)


def test_camera_projection_tuples_are_concurrent():
    """Lines produced by projecting one point through several cameras
    land on the concurrency variety."""
    rng = np.random.default_rng(211)
    from conftest import rand_pinhole, rand_twoslit
    for _ in range(20):
        cams = [rand_pinhole(rng), rand_twoslit(rng),
                rand_pinhole(rng), rand_twoslit(rng)]
        x = rand_point(rng)
        lines = [cam.project(x) for cam in cams]
        assert evaluate_generators(lines).max_residual <= 1e-9


# --- stacked float path against the scalar reference ------------------------

def _coordinate_lines(rng, n):
    """Lines joining a coordinate point to a point with small integer
    coordinates, so that many Pluecker coordinates are exactly zero."""
    out = []
    while len(out) < n:
        p = wedge(E[rng.integers(4)], rng.integers(-2, 3, 4).astype(float))
        if np.any(p):
            out.append(p)
    return out


def _payload_keys(n):
    """The payload keys of n lines: the sorted quadric keys (i, j), then
    the sorted cubic keys (i, j, k, u), each spelled out."""
    return tuple(["quadric[%d][%d]" % (i, j)
                  for i in range(n) for j in range(i, n)]
                 + ["cubic[%d][%d][%d][%d]" % (*t, u)
                    for t in combinations(range(n), 3)
                    for u in range(len(PROBE_POINTS))])


def test_generator_names_are_the_payload_keys():
    rng = np.random.default_rng(216)
    for n in range(2, 7):
        for lines in (lines_through(rng, n)[0],
                      rational_lines_through(rng, n)[0]):
            rep = evaluate_generators(lines)
            assert rep.names == _payload_keys(n)
            assert tuple(rep.payload()) == _payload_keys(n)


def _same_values(a, b):
    """Equal bit for bit: the same float bytes, or equal Fractions."""
    if a.dtype == object:
        return (b.dtype == object and list(a) == list(b)
                and all(type(x) is type(y) for x, y in zip(a, b)))
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_stacked_reports_equal_single_tuple_calls(monkeypatch):
    """One call on an (M, n, 6) stack, whole or in chunks, gives each
    tuple the values of a call on that tuple alone."""
    from gvcam import numeric
    rng = np.random.default_rng(215)
    for n in (2, 3, 4, 5):
        tuples = [lines_through(rng, n)[0] for _ in range(4)]
        tuples += [[rand_line(rng) for _ in range(n)] for _ in range(3)]
        tuples += [_coordinate_lines(rng, n) for _ in range(2)]
        exact = [rational_lines_through(rng, n)[0] for _ in range(3)]
        exact += [[line_from_points(rand_rational_point(rng),
                                    rand_rational_point(rng))
                   for _ in range(n)] for _ in range(3)]
        for group in (tuples, exact):
            stack = np.array(group, dtype=group[0][0].dtype)
            alone = [evaluate_generators(t) for t in group]
            whole = evaluate_generators(stack)
            chunked = []
            for budget in (1, 1000):    # 1 tuple a pass; 2 at n = 3
                with monkeypatch.context() as m:
                    m.setattr(numeric, "SVD_BUDGET", budget)
                    chunked.append(evaluate_generators(stack))
            for reports in (whole, *chunked):
                assert len(reports) == len(alone)
                for got, want in zip(reports, alone):
                    assert got.names == want.names
                    assert _same_values(got.values, want.values)


def test_worst_generator_is_the_first_strict_maximum():
    """``worst`` names the first strict maximum of ``abs(complex(v))`` in
    name order, as one scalar loop does; all zeros name nothing."""
    rng = np.random.default_rng(217)
    for n in (2, 3, 4):
        tie = [line_from_points(E[0], E[1]), line_from_points(E[2], E[3])]
        for lines in (lines_through(rng, n)[0],
                      [rand_line(rng) for _ in range(n)],
                      rational_lines_through(rng, n)[0],
                      tie + [line_from_points(E[0], E[2])] * (n - 2),
                      [line_from_points(rand_point(rng)
                                        + 1j * rand_point(rng),
                                        rand_point(rng))
                       for _ in range(n)]):
            rep = evaluate_generators(lines)
            best = ("", 0.0)
            for name, v in zip(rep.names, rep.values):
                if abs(complex(v)) > best[1]:
                    best = name, abs(complex(v))
            assert rep.worst() == best
            assert rep.max_residual == best[1]


def test_worst_exact_generator_is_compared_exactly():
    """Fractions are compared exactly, and only the largest is rounded: a
    value that rounds like an earlier one still wins, and a value beyond
    the float range (or below its normal range) stays exact."""
    names = ("a", "b", "c")
    third = Fraction(1, 3)
    cases = [((third, third + Fraction(1, 10 ** 40), -third),
              ("b", float(third))),
             ((Fraction(0), -Fraction(10 ** 400), Fraction(10 ** 399)),
              ("b", Fraction(10 ** 400))),
             ((Fraction(1, 10 ** 400), Fraction(0), Fraction(0)),
              ("a", Fraction(1, 10 ** 400))),
             ((Fraction(0),) * 3, ("", 0.0))]
    for values, want in cases:
        got = GeneratorReport(names, np.array(values, dtype=object)).worst()
        assert got == want and type(got[1]) is type(want[1])


def _scalar_worst(rep):
    """``worst`` by one scalar loop: the first NaN, else the first strict
    maximum of ``abs``, Fractions compared exactly and rounded to a float
    only in the normal range."""
    best = ("", 0.0)
    for name, v in zip(rep.names, rep.values.tolist()):
        a = abs(v) if isinstance(v, Fraction) else abs(complex(v))
        if a != a:
            return name, a
        if a > best[1]:
            best = name, a
    floats = np.finfo(np.float64)
    if isinstance(best[1], Fraction) and floats.tiny <= best[1] <= floats.max:
        best = best[0], float(best[1])
    return best


def test_worst_generators_of_a_stack_match_each_report():
    """One pass over a stack of reports names each tuple's worst
    generator as the scalar loop and each report's ``worst`` do, on float
    stacks (with NaN rows and all-zero rows) and on Fraction stacks (with
    all-zero rows and values beyond the float range)."""
    rng = np.random.default_rng(219)
    axes = [line_from_points(E[3], E[i]) for i in range(3)]
    for n in (3, 4):
        floats = [lines_through(rng, n)[0] for _ in range(3)]
        floats += [[rand_line(rng) for _ in range(n)] for _ in range(3)]
        floats += [(axes * 2)[:n]]
        nan = [rand_line(rng) for _ in range(n)]
        nan[1] = np.array([np.nan, 1, 0, 0, 0, 0])
        floats.insert(2, nan)
        exact = [rational_lines_through(rng, n)[0] for _ in range(2)]
        exact += [[vec([Fraction(int(c), 7) for c in rand_line(rng) * 9])
                   for _ in range(n)] for _ in range(2)]
        exact.append([line * 10 ** 400 for line in exact[-1]])
        for tuples in (floats, exact):
            reports = evaluate_generators(np.array(tuples))
            got = worst_generators(reports)
            for rep, (name, top) in zip(reports, got):
                want = _scalar_worst(rep)
                assert name == want[0] == rep.worst()[0]
                assert type(top) is type(want[1])
                if top != top:
                    assert np.isnan(want[1]) and np.isnan(rep.max_residual)
                else:
                    assert top == want[1] == rep.max_residual
            assert any(t == ("", 0.0) for t in got)
    assert worst_generators([]) == []


def _assert_same_worst(L):
    """worst_of_stack(L) is worst_generators(evaluate_generators(L)), name
    for name and bit for bit: float64 tops for a float stack, else the
    same objects."""
    names, tops = worst_of_stack(L)
    want = worst_generators(evaluate_generators(L))
    assert names == [name for name, _ in want]
    if L.dtype == object:
        assert tops.dtype == object and len(tops) == len(want)
        for got, (_, top) in zip(tops.tolist(), want):
            assert type(got) is type(top) and got == top
    else:
        assert tops.dtype == np.float64
        assert tops.tobytes() == np.array([t for _, t in want]).tobytes()
    return names, tops


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_worst_of_stack_equals_the_worst_of_each_report(monkeypatch):
    """The one pass over the magnitudes names each tuple's worst generator
    as the reports do, whole and in chunks: concurrent, random and
    coordinate tuples, a NaN line, all-zero and tied tuples, tuples of 3
    and 4 lines grouped by size as ``gvcam project`` groups them, exact
    tuples, and empty stacks."""
    from gvcam import numeric
    rng = np.random.default_rng(222)
    axes = [line_from_points(E[3], E[i]) for i in range(3)]
    tie = [line_from_points(E[0], E[1]), line_from_points(E[2], E[3])]
    stacks = []
    for n in range(2, 7):
        floats = [lines_through(rng, n)[0] for _ in range(3)]
        floats += [[rand_line(rng) for _ in range(n)] for _ in range(3)]
        floats += [_coordinate_lines(rng, n), (axes * 2)[:n], (tie * 3)[:n]]
        floats[1][n // 2] = np.array([np.nan, 1, 0, 0, 0, 0])
        exact = [rational_lines_through(rng, n)[0] for _ in range(2)]
        stacks += [np.array(floats), np.array(exact, dtype=object),
                   np.zeros((0, n, 6)), np.zeros((0, n, 6), dtype=object)]
    # four cameras, some of which miss a point: one stack per tuple size
    tuples = [[p for p in lines_through(rng, 4)[0] if rng.random() < 0.8]
              for _ in range(40)]
    stacks += [np.array([t for t in tuples if len(t) == size]).reshape(
        -1, size, 6) for size in (3, 4)]
    seen = set()
    for L in stacks:
        names, tops = _assert_same_worst(L)
        if not len(L):
            assert names == [] and tops.shape == (0,)
        seen.update(("" in names, bool(np.isnan(tops.astype(float)).any())))
        for budget in (1, 1000):        # 1 tuple a pass; a few at n <= 4
            with monkeypatch.context() as m:
                m.setattr(numeric, "SVD_BUDGET", budget)
                got = _assert_same_worst(L)
            assert got[0] == names
            np.testing.assert_array_equal(got[1], tops)
    assert seen == {True, False}
    with pytest.raises(InvalidN):
        worst_of_stack(np.zeros((3, 1, 6)))


def test_non_finite_lines_give_nan_generators():
    lines, _ = lines_through(np.random.default_rng(218), 4)
    lines[2] = np.array([np.nan, 1, 0, 0, 0, 0])
    rep = evaluate_generators(lines)
    for name, v in zip(rep.names, rep.values):
        kind, *index = name.replace("]", "").split("[")
        lines_of = index[:3] if kind == "cubic" else index
        assert np.isnan(v) == ("2" in lines_of), name
    assert np.isnan(rep.max_residual)


def _scalar_generators(lines):
    """Quadrics and (C(n,3), 10) cubics, one pair and one triple and probe
    at a time through the scalar functions."""
    n = len(lines)
    quadrics = [incidence(lines[i], lines[j])
                for i in range(n) for j in range(i, n)]
    cubics = [[trilinear_transversal(lines[i], lines[j], lines[k],
                                     vec(list(u)))
               for u in PROBE_POINTS]
              for i, j, k in combinations(range(n), 3)]
    return (np.array(quadrics),
            np.array(cubics).reshape(-1, len(PROBE_POINTS)))


def test_stacked_generators_equal_scalar_path():
    rng = np.random.default_rng(212)
    for n in range(2, 9):
        for _ in range(4):
            for raw in (lines_through(rng, n)[0],
                        [rand_line(rng) for _ in range(n)],
                        _coordinate_lines(rng, n)):
                lines = [unitize(p) for p in raw]
                want_q, want_c = _scalar_generators(lines)
                values = _generators(np.array(lines)[None])[0]
                assert np.array_equal(values[:len(want_q)], want_q)
                assert np.array_equal(values[len(want_q):], want_c.ravel())
                rep = evaluate_generators(raw)
                assert rep.names == _payload_keys(n)
                assert np.array_equal(_values(rep, "quadric"), want_q)
                assert np.array_equal(_values(rep, "cubic"), want_c.ravel())
                for tol in (DEFAULT_TOL, 1e-3):
                    values = list(want_q) + list(want_c[:, :4].ravel())
                    assert concurrent_by_generators(raw, tol) == all(
                        negligible(v, eps=tol) for v in values)


def test_exact_and_complex_generators_take_scalar_values():
    rng = np.random.default_rng(213)
    for n in (2, 3, 4, 5):
        exact_random = [line_from_points(rand_rational_point(rng),
                                         rand_rational_point(rng))
                        for _ in range(n)]
        complex_lines = [line_from_points(rand_point(rng)
                                          + 1j * rand_point(rng),
                                          rand_point(rng))
                         for _ in range(n)]
        for raw in (rational_lines_through(rng, n)[0], exact_random,
                    complex_lines):
            lines = [unitize(p) for p in raw]
            want = {}
            for i, j, k in combinations(range(n), 3):
                for u, v in cubic_generators(lines[i], lines[j],
                                             lines[k]).items():
                    want[(i, j, k, u)] = v
            rep = evaluate_generators(raw)
            assert _values(rep, "quadric") == list(
                quadric_generators(lines).values())
            assert rep.names == _payload_keys(n)
            assert _values(rep, "cubic") == list(want.values())


def _per_line_common_point(lines, tol=DEFAULT_TOL):
    """find_common_point's float rule on one tuple, line by line: the last
    right singular vector of the stacked system, or None unless every
    unitized line passes within ``tol`` of it."""
    lines = [unitize(p) for p in lines]
    _, s, vt = np.linalg.svd(np.vstack([primal_matrix(p) for p in lines]))
    assert s[2] > tol * s[0]
    x = vt[-1]
    return x if max(norm(primal_matrix(p) @ x) for p in lines) <= tol else None


def test_stacked_decision_matches_per_line_loop():
    rng = np.random.default_rng(214)
    verdicts = {}
    for n in range(4, 9):
        for eps in (0.0, 1e-3, 1e-8, 1e-10):
            for _ in range(6):
                lines = [unitize(p) for p in lines_through(rng, n)[0]]
                d = rng.standard_normal(6)
                k = int(rng.integers(n))
                lines[k] = lines[k] + (eps / norm(d)) * d
                want = _per_line_common_point(lines)
                got = find_common_point(lines)
                verdicts.setdefault(eps, set()).add(want is not None)
                if want is None:
                    assert got is None
                else:
                    assert got is not None and np.array_equal(got, want)
    # |P_d x| <= |d| for a unit point x, so a line moved by at most tol
    # still passes within tol of the least-squares point
    assert verdicts == {0.0: {True}, 1e-10: {True}, 1e-8: {True},
                        1e-3: {False}}


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(2, 64), st.integers(0, 2 ** 32 - 1),
       st.floats(-2.0, 0.0), st.floats(0.0, 3.0), st.data())
def test_per_line_rule_is_scale_free_and_separates_moves(n, seed, near, far,
                                                         data):
    """Lines through one point, the first translated by delta at right
    angles to itself and to the second (so those two lie delta apart):
    delta <= 1e-2 * tol passes and delta >= 1e3 * tol does not, whatever
    the scale of each line and whatever n."""
    rng = np.random.default_rng(seed)
    c = np.r_[1.0, rng.uniform(-1.0, 1.0, 3)]
    dirs = [unitize(rng.standard_normal(3)) for _ in range(n)]
    u = np.cross(dirs[0], dirs[1])
    assume(norm(u) > 0.1)
    u = unitize(u)
    scales = np.array(data.draw(st.lists(st.floats(-6.0, 6.0), min_size=n,
                                         max_size=n)))
    for delta, passes in ((0.0, True),
                          (10.0 ** near * 1e-2 * DEFAULT_TOL, True),
                          (10.0 ** far * 1e3 * DEFAULT_TOL, False)):
        moved = c + np.r_[0.0, delta * u]
        lines = np.array([line_from_points(c if i else moved, np.r_[0.0, d])
                          for i, d in enumerate(dirs)])
        x = find_common_point(lines)
        assert (x is not None) == passes
        scaled = find_common_point(lines * 10.0 ** scales[:, None])
        assert (scaled is not None) == passes
        if passes:
            assert_proj_close(scaled, c, 1e-6)


def test_stack_within_budget_takes_one_svd_call(monkeypatch):
    """No per-triple (or other second) SVD: one batched call decides every
    tuple of an (M, n, 6) stack that fits the budget."""
    rng = np.random.default_rng(215)
    n, m = 6, 40
    assert m * 64 * n <= SVD_BUDGET
    L = np.array([lines_through(rng, n)[0] for _ in range(m)])
    L[::2, 0] = [rand_line(rng) for _ in range(m // 2)]
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    points = find_common_point(L)
    assert calls == [(m, 4 * n, 4)]
    assert [p is None for p in points] == [k % 2 == 0 for k in range(m)]
