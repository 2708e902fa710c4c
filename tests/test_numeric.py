"""The stacked binary-form root finder against its one-form reference,
the rendering of floats for a report, and the number-type dispatch of
the scalar and array helpers."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gvcam.errors import DegenerateInput
from gvcam.numeric import (FORM_EPS, as_float, binary_roots, format_scalar,
                           is_exact, norm, parse_scalar, projective_distance,
                           row_norms, unitize, vec)
from conftest import reference_binary_roots

# no coefficient near the subnormal range, even times FORM_EPS: numpy.roots
# overflows on a form whose largest coefficient is subnormal (see
# test_subnormal_form_has_its_roots)
_COEFF = st.floats(-1e3, 1e3).filter(lambda x: x == 0 or abs(x) >= 1e-6)


@st.composite
def _forms(draw):
    """A stack of forms of one degree: rows with a few leading
    coefficients within FORM_EPS, trailing exact zeros, complex
    coefficients, or all zero."""
    d = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = np.array(draw(st.lists(_COEFF, min_size=d + 1,
                                     max_size=d + 1)), dtype=complex)
        if draw(st.booleans()):
            row = row + 1j * np.array(draw(st.lists(
                _COEFF, min_size=d + 1, max_size=d + 1)))
        how = draw(st.sampled_from(["plain", "small", "trailing", "both",
                                    "zero"]))
        if how in ("small", "both"):
            row[:draw(st.integers(1, d))] *= FORM_EPS / 10
        if how in ("trailing", "both"):
            row[d + 1 - draw(st.integers(1, d)):] = 0
        if how == "zero":
            row[:] = 0
        rows.append(row)
    return np.array(rows)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_forms())
def test_stacked_roots_equal_the_reference_row_by_row(forms):
    """Each row's roots equal numpy.roots of the form, bit for bit, with
    (1 : 0) for the leading coefficients within FORM_EPS, and equal the
    finder called on that row alone; a zero row finds no root."""
    s, t, found = binary_roots(forms)
    assert s.shape == t.shape == found.shape == (len(forms),
                                                 forms.shape[1] - 1)
    for i, form in enumerate(forms):
        one = binary_roots(form)
        for stacked, single in zip((s[i], t[i], found[i]), one):
            assert stacked.tobytes() == single.tobytes()
        if not form.any():
            assert not found[i].any()
            with pytest.raises(DegenerateInput):
                reference_binary_roots(form)
            continue
        assert found[i].all()
        roots = np.array(reference_binary_roots(form)).reshape(-1, 2)
        assert roots[:, 0].tobytes() == s[i].tobytes()
        assert roots[:, 1].tobytes() == t[i].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_form_is_refused(bad):
    with pytest.raises(DegenerateInput, match="non-finite"):
        binary_roots(np.array([[1.0, 2.0, 1.0], [1.0, bad, 0.0]]))


def test_subnormal_form_has_its_roots():
    """A form below the normal float range is scaled exactly first."""
    s, t, found = binary_roots(np.array([[1e-320, -2e-320, 0.0],
                                         [0.0, 5e-324, 5e-324]]))
    assert found.all()
    np.testing.assert_array_equal(s, [[2, 0], [1, -1]])
    np.testing.assert_array_equal(t, [[1, 1], [0, 1]])


def test_format_scalar_of_a_float_is_the_float():
    """17 significant digits round-trip every float64, so a float renders
    as itself: random bit patterns (NaNs among them), subnormals, the
    signed zeros and infinities, given as float and as np.float64."""
    rng = np.random.default_rng(22)
    bits = rng.integers(0, 2 ** 64, size=4000, dtype=np.uint64)
    subnormal = bits[:500] & np.uint64(0x800FFFFFFFFFFFFF)
    floats = np.finfo(np.float64)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                         -5e-324, floats.tiny, floats.max, -floats.max])
    values = np.concatenate([bits.view(np.float64),
                             subnormal.view(np.float64), specials])
    assert np.isnan(values).sum() >= 2 and (values == 0).sum() >= 2
    for x in values:
        for given in (x, float(x)):
            got = format_scalar(given)
            assert type(got) is float
            if math.isnan(x):
                assert math.isnan(got)
            else:
                assert np.float64(got).tobytes() == x.tobytes()
                assert got == float(format(x, ".17g"))


@pytest.mark.parametrize("value, exact, expected", [
    (np.float64(1.5), False, np.float64(1.5)),
    (3, False, 3.0), (np.int64(7), False, 7.0), (3, True, Fraction(3)),
    (2 ** 2000, True, Fraction(2 ** 2000)),
    ("3/4", False, Fraction(3, 4)), ("-5", True, Fraction(-5)),
])
def test_parse_scalar_value(value, exact, expected):
    got = parse_scalar(value, exact=exact)
    assert type(got) is type(expected) and got == expected


@pytest.mark.parametrize("value, exact, message", [
    (np.float64(1.5), True, "exact mode requires"),
    (True, False, "booleans"), (False, True, "booleans"),
    (2 ** 2000, False, "2001 bits exceeds the float range"),
    (math.nan, False, "must be finite"), (math.inf, False, "must be finite"),
    (-math.inf, False, "must be finite"), (math.nan, True, "exact mode"),
    ("a/b", False, "cannot parse rational"), (np.float32(1.5), False,
                                              "cannot parse scalar"),
    (1 + 2j, False, "cannot parse scalar"),
    (Fraction(1, 3), False, "cannot parse scalar"),
    (None, False, "cannot parse scalar"),
])
def test_parse_scalar_refusal(value, exact, message):
    with pytest.raises(DegenerateInput, match=message):
        parse_scalar(value, exact=exact)


class _Sub(np.ndarray):
    pass


def _same(got, expected):
    """Equal value, type, and dtype for arrays."""
    assert type(got) is type(expected)
    if isinstance(expected, np.ndarray):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tolist() == expected.tolist()
    else:
        assert got == expected


_FRACTION_0D = np.array(Fraction(1, 3), dtype=object)
_SUB = np.array([1.0, 2.0]).view(_Sub)
_SUB_OBJECT = np.array([Fraction(1, 2), 1], dtype=object).view(_Sub)
_INTS = np.array([1, 2])
_COMPLEX = np.array([1 + 2j])


@pytest.mark.parametrize("value, exact, floats", [
    (_FRACTION_0D, True, np.array(1 / 3)),
    (_SUB, False, _SUB),
    (_SUB_OBJECT, True, np.array([0.5, 1.0])),
    (Fraction(1, 3), True, 1 / 3),
    (1 + 2j, False, 1 + 2j),
    (_COMPLEX, False, _COMPLEX),
    (_INTS, False, _INTS),
    (np.array([1, 2.5], dtype=object), True, np.array([1.0, 2.5])),
    (2.5, False, 2.5), (3, False, 3), (np.float64(2), False, np.float64(2)),
])
def test_is_exact_and_as_float(value, exact, floats):
    assert is_exact(value) is exact
    _same(as_float(value), floats)


def test_as_float_refusals():
    with pytest.raises(DegenerateInput, match="exceeds the float range"):
        as_float(Fraction(10 ** 400))
    with pytest.raises(TypeError):
        as_float(np.array([1 + 1j, 2], dtype=object))


@pytest.mark.parametrize("value, kept, floats, fractions", [
    (_FRACTION_0D, _FRACTION_0D, np.array(1 / 3), _FRACTION_0D),
    (_SUB, _SUB, np.array([1.0, 2.0]),
     np.array([Fraction(1), Fraction(2)], dtype=object)),
    (_SUB_OBJECT, _SUB_OBJECT, np.array([0.5, 1.0]),
     np.array([Fraction(1, 2), Fraction(1)], dtype=object)),
    (Fraction(1, 3), _FRACTION_0D, np.array(1 / 3), _FRACTION_0D),
    (1 + 2j, np.array(1 + 2j), np.array(1 + 2j), None),
    (_COMPLEX, _COMPLEX, _COMPLEX, None),
    (_INTS, _INTS, np.array([1.0, 2.0]),
     np.array([Fraction(1), Fraction(2)], dtype=object)),
    ([1, Fraction(1, 2)], np.array([Fraction(1), Fraction(1, 2)], object),
     np.array([1.0, 0.5]), np.array([Fraction(1), Fraction(1, 2)], object)),
    ([1, 2.5], np.array([1.0, 2.5]), np.array([1.0, 2.5]),
     np.array([Fraction(1), Fraction(5, 2)], dtype=object)),
    (np.array([1 + 1j, 2], dtype=object), np.array([1 + 1j, 2], object),
     np.array([1 + 1j, 2 + 0j]), None),
])
def test_vec_keeps_forces_floats_or_forces_fractions(value, kept, floats,
                                                    fractions):
    _same(vec(value), kept)
    _same(vec(value, exact=False), floats)
    if fractions is None:
        with pytest.raises(TypeError):
            vec(value, exact=True)
    else:
        _same(vec(value, exact=True), fractions)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
       st.integers(-1070, 1010))
def test_norm_at_any_scale(coords, e):
    """A vector whose norm lies in the squarable range has the bits of
    ``np.linalg.norm``; at any power-of-two scale its norm is
    ``math.hypot`` of its coordinates, with no warning."""
    v = np.array(coords)
    if 1e-150 <= np.linalg.norm(v) <= 1e150:
        assert norm(v) == np.linalg.norm(v)
    v = np.ldexp(v, e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = norm(v)
    assert got == pytest.approx(math.hypot(*v), rel=1e-15, abs=2.0 ** -1074)


# rows whose every entry stays exact at each scale 2**k, -1000 <= k <= 1000
# (the 2**-60 entry goes subnormal below k = -962)
_ROWS = {
    "float": np.array([[3., 4, 0, 12], [1, 2.0 ** -60, -3, 0.5],
                       [7, -2, 5, 0.25]]),
    "complex": np.array([[3 + 4j, 1j, 0, -2], [1, 2.0 ** -60 * 1j, -3, 0.5],
                         [0.5 - 0.75j, 0, 0, 0]]),
    "subnormal": np.array([[5e-324, 0, 0, 0], [3 * 5e-324, -4 * 5e-324, 0, 0],
                           [2.0 ** -1030, 2.0 ** -1074, 0, 0]]),
}


@pytest.mark.parametrize("kind", sorted(_ROWS))
def test_norm_of_rows_is_row_norms_where_squarable(kind):
    """On rows whose squares neither under- nor overflow, ``norm(a, -1)``
    has the bits of ``row_norms``, and ``norm(a)`` of one row too; a
    subnormal row has its norm, not 0."""
    a = _ROWS[kind]
    for scale in (1.0, 2.0 ** 400, 2.0 ** -400):
        rows = a * scale if kind != "subnormal" else a
        n = norm(rows, -1)
        squarable = (row_norms(rows) >= 1e-150) & (row_norms(rows) <= 1e150)
        assert (n[squarable] == row_norms(rows)[squarable]).all()
        assert [norm(row) for row in rows] == n.tolist()
    assert norm(_ROWS["subnormal"], -1).tolist() == [
        5e-324, 5 * 5e-324, math.hypot(2.0 ** -1030, 2.0 ** -1074)]


@pytest.mark.parametrize("kind", ["float", "complex"])
def test_norm_and_unitize_are_exact_in_the_scale(kind):
    """At every power-of-two scale 2**k, -1000 <= k <= 1000: the norm of
    each row scales by 2**k exactly wherever both sides are finite and
    normal, and ``unitize`` keeps its bits; no warning is raised."""
    a = _ROWS[kind]
    n, u = norm(a, -1), unitize(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-1000, 1001):
            scaled = a * 2.0 ** k
            got, want = norm(scaled, -1), np.ldexp(n, k)
            normal = ((got >= 2.0 ** -1022) & (want >= 2.0 ** -1022)
                      & np.isfinite(got) & np.isfinite(want))
            assert (got[normal] == want[normal]).all(), k
            assert np.array_equal(unitize(scaled), u), k


def test_unitize_of_subnormal_rows_is_that_of_the_unit_rows():
    """A row of subnormals goes at its power-of-two scale, exactly."""
    unit = np.array([[1., 0, 0, 0], [3, -4, 0, 0], [2.0 ** 44, 1, 0, 0]])
    assert np.array_equal(unitize(_ROWS["subnormal"]), unitize(unit))
    assert np.array_equal(unitize(_ROWS["subnormal"][1]), unitize(unit[1]))


@pytest.mark.parametrize("zero", [np.zeros(4), np.zeros(4, complex),
                                  np.array([[1., 2, 3, 4], [0, 0, 0, 0]]),
                                  np.array([[5e-324, 0], [0, 0]])])
def test_unitize_refuses_a_zero_row(zero):
    with pytest.raises(DegenerateInput, match="zero vector"):
        unitize(zero)


@pytest.mark.parametrize("u, v", [([1., 1, 0, 0], [1., 1, 0, 0]),
                                  ([1., 2, 3, 4], [1., -2, 0, 1]),
                                  ([1j, 2, 0, 0], [1., 1, 1, 0]),
                                  ([0., 0, 0, 1], [0., 0, 1, 1])])
def test_projective_distance_does_not_depend_on_the_scale(u, v):
    """The distance of u and v scaled by 2**+-664 (about 1e+-200) is the
    one at unit scale, bit for bit, with no overflow warning; at 1e200 and
    1e-200 it is the unit one up to rounding."""
    u, v = np.array(u), np.array(v)
    d = projective_distance(u, v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (2.0 ** 664, 2.0 ** -664):
            assert projective_distance(s * u, v) == d
            assert projective_distance(u, s * v) == d
            assert projective_distance(s * u, s * v) == d
        for s in (1e200, 1e-200):
            assert projective_distance(s * u, v) == pytest.approx(d, abs=1e-15)
        assert projective_distance([1e200, 1e200, 0, 0], [1, 1, 0, 0]) < 1e-15
