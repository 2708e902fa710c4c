"""Differential tests of the number regimes.  On small-integer inputs the
one zero test, ``numeric.negligible``, reaches the same verdict with exact
Fractions as with floats.  An exact entry point gives the same answer, up
to projective scale, or the same error, on Fraction inputs scaled by
10^400 or by 10^-400 as at scale 1, since an exact zero test never
computes a float scale."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from gvcam.cameras import Pinhole, Pushbroom, TwoSlit, Type3, Type4
from gvcam.catadioptric import ReflectionMap
from gvcam.concurrency import concurrent_by_generators
from gvcam.errors import GeometryError
from gvcam.numeric import _scaled_rows, det3, negligible, vec
from gvcam.plucker import join_plane, line_from_points, meet_point
from gvcam.tensors import (class_beta_project, fundamental_matrix,
                           pinhole_fiber, pinhole_project, twoslit_fiber,
                           twoslit_project)

small = st.integers(-3, 3)
points = st.lists(small, min_size=4, max_size=4)
pairs = st.lists(small, min_size=2, max_size=2)
regime = settings(derandomize=True, max_examples=30, deadline=None,
                  database=None)


def _scaled(x, c):
    return [c * v for v in x]


# A second point that is often a multiple of the first, so that the
# degenerate verdicts are drawn as well as the generic ones.
point_pairs = st.tuples(points, points, small, st.booleans()).map(
    lambda t: (t[0], _scaled(t[0], t[2]) if t[3] else t[1]))


def outcome(fn, *args):
    """``fn(*args)``, or the name of the geometry error it raises."""
    try:
        return fn(*args)
    except GeometryError as exc:
        return type(exc).__name__


def verdict(fn):
    """``fn`` with its answer dropped: None, or the error it raises."""
    def run(*data):
        fn(*data)
    return run


def cofactors(M):
    """The cofactor vector of a 3x4 matrix, which the matrix maps to 0."""
    return [(-1) ** j * det3([[r[k] for k in range(4) if k != j] for r in M])
            for j in range(4)]


def same_outcome(fn, *data):
    """``fn`` has the same outcome on the data as Fractions and as floats."""
    exact = outcome(fn, *(vec(d, exact=True) for d in data))
    assert exact == outcome(fn, *(vec(d, exact=False) for d in data))


#: Scales of exact inputs beyond the float range, both ways.
FAR_SCALES = (Fraction(10) ** 400, Fraction(1, 10 ** 400))


def _ray(out):
    """Each array of ``out`` (one array, a tuple of them, or a verdict),
    which must hold Fractions only, as the list of its entries divided by
    the one of largest magnitude: its exact projective class."""
    if isinstance(out, tuple):
        return tuple(_ray(a) for a in out)
    if not isinstance(out, np.ndarray):
        return out
    assert all(type(v) is Fraction for v in out.flat)
    return _scaled_rows(out.ravel()).tolist()


def same_ray_at_far_scales(fn, *data):
    """``fn`` on the data as Fractions, each datum scaled by 10^400 and by
    10^-400, gives the answer of scale 1 up to projective scale, exactly,
    or the same error."""
    def run(c):
        return outcome(lambda *a: _ray(fn(*a)),
                       *(vec(d, exact=True) * c for d in data))
    at_one = run(1)
    for c in FAR_SCALES:
        assert run(c) == at_one


def test_negligible_regimes():
    def no_scale():
        raise AssertionError("an exact zero test computed a scale")
    assert negligible(vec([0, 0], exact=True), scale=no_scale)
    assert not negligible(Fraction(1, 10 ** 30))
    assert negligible(1e-13) and not negligible(1e-11)
    assert negligible(1e-9, scale=lambda: 1e3) and not negligible(1e-9)
    assert negligible(np.array([3e-9j, 4e-9]), eps=5e-9)


def test_negligible_of_each_entry_and_row():
    # axis=() is negligible of each entry, axis=-1 of each row
    values = np.array([0, 1e-13, -1e-11, 2j, -3e-13j, 1e-200, 1e200,
                       np.inf, np.nan])
    for scale in (1.0, 1e-300, 1e300, np.full(len(values), 3.0)):
        scales = np.broadcast_to(scale, values.shape)
        with np.errstate(over="ignore"):   # 1e200 squared
            assert negligible(values, lambda: scale, axis=()).tolist() == [
                negligible(v, lambda: s) for v, s in zip(values, scales)]
    exact = vec([0, Fraction(1, 10 ** 30), -2], exact=True)
    assert negligible(exact, lambda: 1e300, axis=()).tolist() == [
        True, False, False]
    rows = np.array([[0, 0], [3e-13, 4e-13j], [1e-11, 0], [1e-200, 1e-200],
                     [1e200, 0], [np.inf, 0], [np.nan, 0]])
    for scale in (1.0, 1e-300, 1e300, np.full(len(rows), 3.0)):
        scales = np.broadcast_to(scale, len(rows))
        with np.errstate(over="ignore"):
            assert negligible(rows, lambda: scale, axis=-1).tolist() == [
                negligible(r, lambda: s) for r, s in zip(rows, scales)]
    exact = vec([[0, 0], [0, Fraction(1, 10 ** 30)]], exact=True)
    assert negligible(exact, lambda: 1e300, axis=-1).tolist() == [
        True, False]


@regime
@given(point_pairs, points, points, st.booleans())
def test_line_from_points_regimes(pair, x, u, incident):
    # when incident, x lies on the line and the plane u contains it
    if incident:
        x, u = pair[0], cofactors([*pair, x])

    def join(a, b, x):
        return join_plane(line_from_points(a, b), x)

    def meet(a, b, u):
        return meet_point(line_from_points(a, b), u)
    same_outcome(verdict(line_from_points), *pair)
    same_ray_at_far_scales(line_from_points, *pair)
    for fn, w in ((join, x), (meet, u)):
        same_outcome(verdict(fn), *pair, w)
        same_ray_at_far_scales(fn, *pair, w)


@regime
@given(points, point_pairs)
def test_pinhole_project_regimes(center, pair):
    def run(c, x, y):
        Pinhole(c).project(x)
    same_outcome(run, center, *pair)
    same_ray_at_far_scales(lambda c, x: Pinhole(c).project(x), center,
                           pair[1])


@regime
@given(points, points, points, points, small, small)
def test_twoslit_and_pushbroom_regimes(a, b, c, d, s, t):
    # x = s*a + t*b lies on the first slit
    x = [s * u + t * v for u, v in zip(a, b)]

    def run(a, b, c, d, x):
        TwoSlit(line_from_points(a, b), line_from_points(c, d)).project(x)

    def pushbroom(a, b):
        Pushbroom(line_from_points(a, b))
    same_outcome(run, a, b, c, d, x)
    same_outcome(pushbroom, a, b)
    same_ray_at_far_scales(lambda a, b, c, d, x: TwoSlit(
        line_from_points(a, b), line_from_points(c, d)).project(x),
        a, b, c, d, x)
    same_ray_at_far_scales(lambda a, b, x: Pushbroom(
        line_from_points(a, b)).project(x), a, b, x)


@regime
@given(st.lists(small, min_size=3, max_size=3),
       st.lists(small, min_size=3, max_size=3), points, st.booleans())
def test_type4_project_regimes(g, h, x, on_base_line):
    if on_base_line:
        x = [0, 0] + x[2:]
    def run(g, h, x):
        Type4(g, h).project(x)
    same_outcome(run, g, h, x)
    same_ray_at_far_scales(lambda g, h, x: Type4(g, h).project(x), g, h, x)


@regime
@given(st.lists(points, min_size=3, max_size=3),
       st.lists(points, min_size=3, max_size=3),
       st.lists(st.lists(small, min_size=3, max_size=3),
                min_size=3, max_size=3), st.booleans())
def test_fundamental_matrix_regimes(A, B, M, shared):
    # B = M A shares the center of A
    if shared:
        B = (np.array(M) @ np.array(A)).tolist()
    same_outcome(verdict(fundamental_matrix), A, B)
    same_ray_at_far_scales(fundamental_matrix, A, B)


@regime
@given(st.lists(points, min_size=3, max_size=3), points, st.booleans(),
       st.lists(small, min_size=3, max_size=3))
def test_pinhole_matrix_regimes(A, x, at_center, w):
    if at_center:
        x = cofactors(A)
    for fn, data in ((pinhole_project, (A, x)), (pinhole_fiber, (A, w))):
        same_outcome(verdict(fn), *data)
        same_ray_at_far_scales(fn, *data)


@regime
@given(st.lists(points, min_size=4, max_size=4), points, pairs, pairs,
       st.booleans())
def test_twoslit_matrix_regimes(rows, x, u, v, on_slit):
    # rows A0, A1, B0, B1; the kernel of A is the first slit
    if on_slit:
        x = cofactors(rows[:3])
    def project(A0, A1, B0, B1, x):
        return twoslit_project(([A0, A1], [B0, B1]), x)

    def fiber(A0, A1, B0, B1, u, v):
        return twoslit_fiber(([A0, A1], [B0, B1]), u, v)
    for fn, data in ((project, (*rows, x)), (fiber, (*rows, u, v))):
        same_outcome(verdict(fn), *data)
        same_ray_at_far_scales(fn, *data)


@regime
@given(pairs, st.lists(small, min_size=3, max_size=3),
       st.lists(small, min_size=3, max_size=3), points, st.booleans())
def test_class_beta_project_and_type3_regimes(f, g, h, x, on_base_line):
    if on_base_line:
        x = [0, 0] + x[2:]

    def type3(f, g, h, x):
        return Type3(f, g, h).project(x)
    for fn in (class_beta_project, type3):
        same_outcome(verdict(fn), f, g, h, x)
        same_ray_at_far_scales(fn, f, g, h, x)


@regime
@given(points)
def test_reflection_map_regimes(H):
    def run(H):
        ReflectionMap(H)
    same_outcome(run, H)
    same_ray_at_far_scales(lambda H: ReflectionMap(H).matrix, H)


@regime
@given(points, st.lists(points, min_size=3, max_size=4),
       st.lists(st.booleans(), min_size=4, max_size=4), st.booleans())
def test_concurrent_by_generators_regimes(center, others, through, all_through):
    # line i joins others[i] to the center, or else to the next point
    ends = [center if all_through or t else others[(i + 1) % len(others)]
            for i, t in zip(range(len(others)), through)]

    def decide(*pts):
        half = len(pts) // 2
        return concurrent_by_generators(
            [line_from_points(p, q) for p, q in zip(pts[:half], pts[half:])])
    same_outcome(decide, *others, *ends)
    same_ray_at_far_scales(decide, *others, *ends)
