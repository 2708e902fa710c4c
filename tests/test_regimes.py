"""Differential tests of the two number regimes: on small-integer inputs,
every zero test (``numeric.negligible``) reaches the same verdict with
exact Fractions as with floats."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from gvcam.cameras import Pinhole, Pushbroom, TwoSlit, Type4
from gvcam.catadioptric import ReflectionMap
from gvcam.concurrency import concurrent_by_generators
from gvcam.errors import GeometryError
from gvcam.numeric import negligible, negligible_each, vec
from gvcam.plucker import line_from_points
from gvcam.tensors import fundamental_matrix

small = st.integers(-3, 3)
points = st.lists(small, min_size=4, max_size=4)
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


def same_outcome(fn, *data):
    """``fn`` has the same outcome on the data as Fractions and as floats."""
    exact = outcome(fn, *(vec(d, exact=True) for d in data))
    assert exact == outcome(fn, *(vec(d, exact=False) for d in data))


def test_negligible_regimes():
    assert negligible(vec([0, 0], exact=True), scale=0.0)
    assert not negligible(Fraction(1, 10 ** 30))
    assert negligible(1e-13) and not negligible(1e-11)
    assert negligible(1e-9, scale=1e3) and not negligible(1e-9)
    assert negligible(np.array([3e-9j, 4e-9]), eps=5e-9)


def test_negligible_each_is_negligible_of_each_element():
    values = np.array([0, 1e-13, -1e-11, 2j, -3e-13j, 1e-200, 1e200,
                       np.inf, np.nan])
    for scale in (1.0, 1e-300, 1e300, np.full(len(values), 3.0)):
        scales = np.broadcast_to(scale, values.shape)
        with np.errstate(over="ignore"):   # 1e200 squared
            assert negligible_each(values, scale).tolist() == [
                negligible(v, s) for v, s in zip(values, scales)]
    exact = vec([0, Fraction(1, 10 ** 30), -2], exact=True)
    assert negligible_each(exact, 1e300).tolist() == [True, False, False]


@regime
@given(point_pairs)
def test_line_from_points_regimes(pair):
    def run(x, y):
        line_from_points(x, y)
    same_outcome(run, *pair)


@regime
@given(points, point_pairs)
def test_pinhole_project_regimes(center, pair):
    def run(c, x, y):
        Pinhole(c).project(x)
    same_outcome(run, center, *pair)


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


@regime
@given(st.lists(small, min_size=3, max_size=3),
       st.lists(small, min_size=3, max_size=3), points, st.booleans())
def test_type4_project_regimes(g, h, x, on_base_line):
    if on_base_line:
        x = [0, 0] + x[2:]
    def run(g, h, x):
        Type4(g, h).project(x)
    same_outcome(run, g, h, x)


@regime
@given(st.lists(points, min_size=3, max_size=3),
       st.lists(points, min_size=3, max_size=3),
       st.lists(st.lists(small, min_size=3, max_size=3),
                min_size=3, max_size=3), st.booleans())
def test_fundamental_matrix_regimes(A, B, M, shared):
    # B = M A shares the center of A
    if shared:
        B = (np.array(M) @ np.array(A)).tolist()
    def run(A, B):
        fundamental_matrix(A, B)
    same_outcome(run, A, B)


@regime
@given(points)
def test_reflection_map_regimes(H):
    def run(H):
        ReflectionMap(H)
    same_outcome(run, H)


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
